//! Keccak-256 as used by Ethereum.
//!
//! This is the original Keccak submission (domain-separation byte `0x01`),
//! *not* the NIST-standardized SHA3-256 (`0x06`). Ethereum froze on the
//! pre-standard padding, so `keccak256("")` is
//! `c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470`.
//!
//! The implementation is a straightforward keccak-f[1600] over a 5×5 lane
//! state with the rate/capacity split of a 256-bit output (rate = 136 bytes).
//! It supports incremental hashing via [`Keccak256::update`].
//!
//! The permutation is written once, over `N` interleaved states, as plain
//! loops over the `N` copies of each lane. `N = 1` is the scalar hasher.
//! `N = 8` is the **multi-buffer** kernel behind [`keccak256_batch`]: compiled
//! for AVX-512 every such loop is one 512-bit instruction (rotate and the
//! three-input χ among them) and the 25 interleaved lanes stay in 25 of the
//! 32 vector registers, so eight independent hashes advance for about the
//! price of one. The batch entry point takes that path where the CPU has
//! AVX-512 and hashes one input after another everywhere else; the digests
//! are the same either way.

use std::cell::Cell;

use bp_types::H256;

const RATE: usize = 136; // 1600/8 - 2*32
const ROUNDS: usize = 24;

const RC: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets, indexed `x + 5 * y` for lane (x, y).
const ROTC: [u32; 25] = [
    0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39, 41, 45, 15, 21, 8, 18, 2, 61, 56, 14,
];

/// `N` keccak states, interleaved: `a[x + 5 * y][s]` is lane (x, y) of
/// state `s`.
type States<const N: usize> = [[u64; N]; 25];

/// keccak-f[1600] on each of `N` interleaved states.
#[inline(always)]
fn keccak_f<const N: usize>(a: &mut States<N>) {
    for &rc in RC.iter() {
        // θ
        let mut c = [[0u64; N]; 5];
        for x in 0..5 {
            for s in 0..N {
                c[x][s] = a[x][s] ^ a[x + 5][s] ^ a[x + 10][s] ^ a[x + 15][s] ^ a[x + 20][s];
            }
        }
        for x in 0..5 {
            let mut d = [0u64; N];
            for s in 0..N {
                d[s] = c[(x + 4) % 5][s] ^ c[(x + 1) % 5][s].rotate_left(1);
            }
            for y in 0..5 {
                for s in 0..N {
                    a[x + 5 * y][s] ^= d[s];
                }
            }
        }
        // ρ and π
        let mut b = [[0u64; N]; 25];
        for x in 0..5 {
            for y in 0..5 {
                let to = y + 5 * ((2 * x + 3 * y) % 5);
                for s in 0..N {
                    b[to][s] = a[x + 5 * y][s].rotate_left(ROTC[x + 5 * y]);
                }
            }
        }
        // χ
        for y in 0..5 {
            for x in 0..5 {
                for s in 0..N {
                    a[x + 5 * y][s] =
                        b[x + 5 * y][s] ^ (!b[(x + 1) % 5 + 5 * y][s] & b[(x + 2) % 5 + 5 * y][s]);
                }
            }
        }
        // ι
        for lane in &mut a[0] {
            *lane ^= rc;
        }
    }
}

thread_local! {
    static PERMUTATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Calls of the permutation made by this thread so far, a call that advances
/// eight states counting once: the unit a batch saves, for tests and
/// measurements to read before and after the work they look at.
pub fn permutation_count() -> u64 {
    PERMUTATIONS.get()
}

/// One counted call of the permutation.
#[inline(always)]
fn permute<const N: usize>(a: &mut States<N>) {
    PERMUTATIONS.set(PERMUTATIONS.get() + 1);
    keccak_f(a);
}

/// XORs one rate-sized block into state `s`.
#[inline(always)]
fn xor_block<const N: usize>(a: &mut States<N>, s: usize, block: &[u8]) {
    debug_assert_eq!(block.len(), RATE);
    for (lane, bytes) in a.iter_mut().zip(block.chunks_exact(8)) {
        lane[s] ^= u64::from_le_bytes(bytes.try_into().expect("chunks of eight"));
    }
}

/// The last block of an input: what is left of it (less than a block),
/// then Keccak's (pre-NIST) padding `0x01 … 0x80`.
#[inline(always)]
fn padded(rest: &[u8]) -> [u8; RATE] {
    let mut block = [0u8; RATE];
    block[..rest.len()].copy_from_slice(rest);
    block[rest.len()] = 0x01;
    block[RATE - 1] |= 0x80;
    block
}

/// The 32-byte digest squeezed from state `s`.
#[inline(always)]
fn digest<const N: usize>(a: &States<N>, s: usize) -> H256 {
    let mut out = [0u8; 32];
    for (bytes, lane) in out.chunks_exact_mut(8).zip(a) {
        bytes.copy_from_slice(&lane[s].to_le_bytes());
    }
    H256(out)
}

/// Incremental Keccak-256 hasher.
#[derive(Clone)]
pub struct Keccak256 {
    state: States<1>,
    buf: [u8; RATE],
    buf_len: usize,
}

impl Default for Keccak256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Keccak256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Keccak256 {
            state: [[0u64; 1]; 25],
            buf: [0u8; RATE],
            buf_len: 0,
        }
    }

    /// Absorbs `data`. Whole blocks are read where they lie; only a tail
    /// shorter than a block is copied, to wait for the rest of it.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        if self.buf_len > 0 {
            let take = (RATE - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < RATE {
                return;
            }
            absorb(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = input.chunks_exact(RATE);
        for block in &mut blocks {
            absorb(&mut self.state, block);
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finalizes and returns the 32-byte digest.
    pub fn finalize(mut self) -> H256 {
        absorb(&mut self.state, &padded(&self.buf[..self.buf_len]));
        digest(&self.state, 0)
    }
}

/// Absorbs one block into a lone state.
fn absorb(state: &mut States<1>, block: &[u8]) {
    xor_block(state, 0, block);
    permute(state);
}

/// One-shot Keccak-256.
pub fn keccak256(data: &[u8]) -> H256 {
    let mut h = Keccak256::new();
    h.update(data);
    h.finalize()
}

/// Keccak-256 over the concatenation of two slices, without allocating.
pub fn keccak256_concat(a: &[u8], b: &[u8]) -> H256 {
    let mut h = Keccak256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

/// Keccak-256 of each of `inputs`, in their order: `keccak256` mapped over
/// them, digest for digest, whatever their number and lengths.
///
/// Independent inputs are what the multi-buffer kernel needs. Where the CPU
/// has AVX-512 (looked up on each call in the flag `std` caches after its
/// first CPUID probe) eight of them are in flight at a time, one permutation
/// call advancing all eight by a block; a state whose input ends takes the
/// next one, so mixed lengths keep all eight busy until the inputs run out.
/// Everywhere else, and for a single input, the inputs are hashed one after
/// another. A caller with one long input has nothing to interleave and
/// should call [`keccak256`].
#[allow(unsafe_code)]
pub fn keccak256_batch<'a>(inputs: impl IntoIterator<Item = &'a [u8]>) -> Vec<H256> {
    let inputs = inputs.into_iter();
    #[cfg(target_arch = "x86_64")]
    if x8_supported() {
        let mut inputs = inputs.fuse();
        return match (inputs.next(), inputs.next()) {
            (Some(first), Some(second)) => {
                let inputs = [first, second].into_iter().chain(inputs);
                // SAFETY: `batch_x8` is compiled for avx512f, which this CPU
                // was just found to have; it is otherwise safe code.
                // Exercised by `batch_matches_one_by_one_at_every_length_in_every_lane`
                // where the CPU has avx512f (`batch_reports_its_path` says
                // whether it does).
                unsafe { batch_x8(inputs) }
            }
            // One permutation of eight states costs more than one of one.
            (only, _) => batch_scalar(only.into_iter()),
        };
    }
    batch_scalar(inputs)
}

/// The batch on the scalar path.
fn batch_scalar<'a>(inputs: impl Iterator<Item = &'a [u8]>) -> Vec<H256> {
    inputs.map(keccak256).collect()
}

/// Whether this CPU runs the ×8 kernel.
#[cfg(target_arch = "x86_64")]
fn x8_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// States the multi-buffer kernel interleaves: eight 64-bit lanes are one
/// 512-bit register. (Four under AVX2 was measured and is slower a hash
/// than the scalar loop: the 25-lane state does not fit sixteen registers
/// and AVX2 has no rotate. EXPERIMENTS.md, "Keccak eight lanes at a time".)
#[cfg(target_arch = "x86_64")]
const LANES: usize = 8;

/// An input on its way through one of the interleaved states.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct InFlight<'a> {
    /// Its place among the inputs, and so among the digests.
    index: usize,
    /// What has not been absorbed yet.
    rest: &'a [u8],
    /// Its padded last block is in the state: the next permutation
    /// completes its digest.
    padded: bool,
}

/// The batch on the ×8 kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn batch_x8<'a>(inputs: impl Iterator<Item = &'a [u8]>) -> Vec<H256> {
    let mut inputs = inputs.fuse();
    let mut digests = Vec::with_capacity(inputs.size_hint().0);
    let mut states = [[0u64; LANES]; 25];
    let mut lanes: [Option<InFlight>; LANES] = [None; LANES];
    loop {
        let mut busy = false;
        for (s, lane) in lanes.iter_mut().enumerate() {
            if lane.is_none() {
                // An idle state was permuted along with the others: the
                // next input starts from zero.
                *lane = inputs.next().map(|input| {
                    states.iter_mut().for_each(|interleaved| interleaved[s] = 0);
                    digests.push(H256::ZERO);
                    InFlight {
                        index: digests.len() - 1,
                        rest: input,
                        padded: false,
                    }
                });
            }
            let Some(input) = lane else { continue };
            busy = true;
            match input.rest.split_at_checked(RATE) {
                Some((block, rest)) => {
                    xor_block(&mut states, s, block);
                    input.rest = rest;
                }
                None => {
                    xor_block(&mut states, s, &padded(input.rest));
                    input.padded = true;
                }
            }
        }
        if !busy {
            return digests;
        }
        permute(&mut states);
        for (s, lane) in lanes.iter_mut().enumerate() {
            if let Some(done) = lane.take_if(|input| input.padded) {
                digests[done.index] = digest(&states, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(h: &H256) -> String {
        h.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_input_vector() {
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn ethereum_hello_vector() {
        // Widely-published Ethereum test value.
        assert_eq!(
            hex(&keccak256(b"hello")),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"
        );
    }

    #[test]
    fn rate_boundary_inputs() {
        // Exercise lengths around the 136-byte rate: the padded block layout
        // differs at len == RATE-1, RATE, RATE+1.
        for len in [0usize, 1, 135, 136, 137, 271, 272, 273, 1000] {
            let data = vec![0xAAu8; len];
            let one_shot = keccak256(&data);
            // Incremental with odd chunk sizes must match.
            let mut h = Keccak256::new();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "mismatch at len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..500u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut h = Keccak256::new();
        h.update(&data[..100]);
        h.update(&data[100..137]);
        h.update(&data[137..]);
        assert_eq!(h.finalize(), keccak256(&data));
    }

    #[test]
    fn concat_helper_matches_manual() {
        let a = b"foo";
        let b = b"barbaz";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(keccak256_concat(a, b), keccak256(&joined));
    }

    #[test]
    fn multi_block_vector() {
        // The Keccak team's 1600-bit message: two rate blocks.
        assert_eq!(
            hex(&keccak256(&[0xa3; 200])),
            "3a57666b048777f2c953dc4456f45a2588e1cb6f2da760122d530ac2ce607d4a"
        );
    }

    /// An input of `len` bytes that differs from its neighbours'.
    fn input(len: usize, salt: usize) -> Vec<u8> {
        (0..len)
            .map(|j| (j * 131 + salt * 29 + len) as u8)
            .collect()
    }

    /// The batch on the ×8 kernel, called directly; `None` where the CPU
    /// cannot run it.
    #[allow(unsafe_code)]
    fn x8(inputs: &[Vec<u8>]) -> Option<Vec<H256>> {
        #[cfg(target_arch = "x86_64")]
        if x8_supported() {
            // SAFETY: avx512f was just detected. Exercised by every
            // `assert_paths_agree` caller, e.g.
            // `batch_matches_one_by_one_at_every_size_with_mixed_lengths`.
            return Some(unsafe { batch_x8(inputs.iter().map(Vec::as_slice)) });
        }
        let _ = inputs;
        None
    }

    /// Entry point, scalar path and (where it runs) the ×8 kernel give the
    /// digests `keccak256` gives one by one.
    fn assert_paths_agree(inputs: &[Vec<u8>]) {
        let expected: Vec<H256> = inputs.iter().map(|i| keccak256(i)).collect();
        let slices = || inputs.iter().map(Vec::as_slice);
        assert_eq!(keccak256_batch(slices()), expected);
        assert_eq!(batch_scalar(slices()), expected);
        if let Some(digests) = x8(inputs) {
            assert_eq!(digests, expected);
        }
    }

    #[test]
    fn batch_reports_its_path() {
        // `cargo test -p bp-crypto batch_reports_its_path -- --nocapture`
        // shows which kernel the equivalence tests below exercised.
        match x8(&[]) {
            Some(_) => eprintln!("keccak256_batch: x8 AVX-512 kernel"),
            None => eprintln!(
                "keccak256_batch: scalar loop (no avx512f), x8 equivalence checks skipped"
            ),
        }
    }

    #[test]
    fn batch_matches_one_by_one_at_every_length_in_every_lane() {
        // Seven 50-byte neighbours and one input of every length up to five
        // blocks and a bit, in each of the eight places of a batch: the
        // long one outlives its neighbours, whose states stay idle.
        for len in 0..=700 {
            for lane in 0..8 {
                let inputs: Vec<Vec<u8>> = (0..8)
                    .map(|i| input(if i == lane { len } else { 50 }, i))
                    .collect();
                assert_paths_agree(&inputs);
            }
        }
    }

    #[test]
    fn batch_matches_one_by_one_at_every_size_with_mixed_lengths() {
        // Lengths around the block boundaries, interleaved so that states
        // finish at different times and take over the inputs that follow.
        let lengths = [
            0, 700, 1, 135, 136, 32, 137, 271, 0, 272, 273, 64, 500, 135, 408, 7, 544,
        ];
        for size in 0..=17 {
            for shift in 0..lengths.len() {
                let inputs: Vec<Vec<u8>> = (0..size)
                    .map(|i| input(lengths[(i + shift) % lengths.len()], i))
                    .collect();
                assert_paths_agree(&inputs);
            }
        }
        // More inputs than states, all alike: every state is refilled.
        let many: Vec<Vec<u8>> = (0..100).map(|i| input(104, i)).collect();
        assert_paths_agree(&many);
    }

    #[test]
    fn a_permutation_of_eight_states_counts_once() {
        let inputs: Vec<Vec<u8>> = (0..16).map(|i| input(100, i)).collect();
        let before = permutation_count();
        batch_scalar(inputs.iter().map(Vec::as_slice));
        assert_eq!(permutation_count() - before, 16);
        let before = permutation_count();
        if x8(&inputs).is_some() {
            assert_eq!(permutation_count() - before, 2);
        }
        // A single input takes the scalar path either way: one call a block.
        let before = permutation_count();
        keccak256_batch([&[0u8; 300][..]]);
        assert_eq!(permutation_count() - before, 3);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(keccak256(b"a"), keccak256(b"b"));
        assert_ne!(keccak256(b""), keccak256(b"\x00"));
    }
}
