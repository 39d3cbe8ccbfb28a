#!/usr/bin/env bash
# Product lines per crate, and their total. Product code is every line of
# tracked Rust outside `benchmark/`, outside `tests/` directories and outside
# `#[cfg(test)]` items (modules, functions, fields, statics). An item's end
# is found from rustfmt's layout: a braced item closes at its own
# indentation. Lines under `#[cfg(test)]` are printed apart, as `cfg(test)`.
#
#   scripts/product_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files '*.rs' ':!:benchmark/**' ':!:tests/**' ':!:**/tests/**' |
    xargs awk '
    FNR == 1 {
        unit = FILENAME
        if (unit ~ /^crates\//) { split(unit, p, "/"); unit = p[2] }
        else { sub(/\/.*/, "", unit) }
        mode = ""
        pending = 0
    }
    function lead(s) { match(s, /^[ \t]*/); return substr(s, 1, RLENGTH) }
    mode == "brace" {
        test[unit]++
        if (index($0, indent "}") == 1 && substr($0, length(indent) + 1) ~ /^\}[;,]?[ \t]*$/) mode = ""
        next
    }
    mode == "header" {
        test[unit]++
        if ($0 ~ /;[ \t]*$/) mode = ""
        else if (lead($0) == indent && $0 ~ /\{[ \t]*$/) mode = "brace"
        next
    }
    /^[ \t]*#\[cfg\(test\)\]/ { pending = 1; test[unit]++; next }
    pending && /^[ \t]*(#\[|\/\/)/ { test[unit]++; next }
    pending {
        pending = 0
        test[unit]++
        indent = lead($0)
        if ($0 ~ /\{[ \t]*$/) mode = "brace"
        else if ($0 !~ /[;,}][ \t]*$/) mode = "header"
        next
    }
    { product[unit]++ }
    END {
        for (u in product) { printf "%-12s %6d\n", u, product[u]; total += product[u] }
        for (u in test) cfg += test[u]
        printf "%-12s %6d\n", "total", total
        printf "%-12s %6d\n", "cfg(test)", cfg
    }' | sort -k1,1 | awk '$1 != "total" && $1 != "cfg(test)" { print } $1 == "total" || $1 == "cfg(test)" { tail[$1] = $0 } END { print tail["total"]; print tail["cfg(test)"] }'
