//! Merkle Patricia Trie.
//!
//! A faithful in-memory implementation of Ethereum's authenticated radix
//! trie: leaf / extension / branch nodes, hex-prefix path compaction, RLP
//! node encoding, and the <32-byte node inlining rule. The root hash of the
//! account trie is the blockchain's *state root* — the value BlockPilot
//! validators compare against the proposed block header (§5.2: "two world
//! states are considered identical only if their MPT roots are the same").
//!
//! Nodes are **structurally shared**: children are held behind [`Arc`], so
//! `Trie::clone` is O(1) and a mutation copies only the nodes on the touched
//! paths while every untouched subtree stays shared with prior clones.
//!
//! The trie is **always committed**. Every child slot holds, beside the
//! pointer, the child's *commitment* — its keccak hash, or its whole
//! encoding when that is shorter than 32 bytes — and the trie handle holds
//! the root's. Encoding a node therefore reads that node alone, and a
//! mutation hashes exactly the nodes it creates. Mutations arrive as sorted
//! batches ([`Trie::apply_batch`]; `insert`/`remove` are batches of one) and
//! are applied in **one recursive descent** that splits the batch by nibble
//! at each branch: a node under k of the batch's keys is copied and hashed
//! once, not k times. The descent only builds: it leaves the nodes it
//! creates *pending*, and they are then hashed **level by level, deepest
//! first**, across the whole batch — the nodes of one level do not depend on
//! one another, so each level is one batch for the eight-at-a-time keccak
//! kernel ([`bp_crypto::keccak256_batch`]). This is what makes the world
//! state's incremental commitment cost O(touched nodes / 8) permutation
//! calls per block and little else.
//!
//! The trie also produces Merkle proofs ([`Trie::prove`] /
//! [`verify_proof`]) and its set of *hashed nodes* ([`Trie::commit_nodes`]),
//! both used in tests to cross-check the commitment logic.

use std::sync::Arc;

use bp_crypto::rlp::{self, Reader, Token};
use bp_crypto::{keccak256, keccak256_batch};
use bp_types::H256;

use crate::nibbles::{nibble_at, Nibbles};

/// Root hash of the empty trie: `keccak256(rlp(""))`. A constant — every
/// EOA's account body and every empty [`Trie::root_hash`] asks for it.
pub fn empty_root() -> H256 {
    const EMPTY_ROOT: H256 = H256([
        0x56, 0xe8, 0x1f, 0x17, 0x1b, 0xcc, 0x55, 0xa6, 0xff, 0x83, 0x45, 0xe6, 0x92, 0xc0, 0xf8,
        0x6e, 0x5b, 0x48, 0xe0, 0x1b, 0x99, 0x6c, 0xad, 0xc0, 0x01, 0x62, 0x2f, 0xb5, 0xe3, 0x63,
        0xb4, 0x21,
    ]);
    EMPTY_ROOT
}

// ---------------------------------------------------------------------------
// Node layout
// ---------------------------------------------------------------------------

/// What a parent records about a child: the keccak hash of the child's
/// encoding (`len == 32`), or the encoding itself when it is shorter than 32
/// bytes (the MPT inlining rule). Either way it is what the parent's own
/// encoding embeds, so encoding a parent never visits the child.
///
/// Inside a batch — between the descent that builds its nodes and
/// [`commit_levels`], which hashes them — a fresh node's slot is *pending*
/// instead: it records the node's level. No pending slot outlives the call
/// that applies the batch.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Commitment {
    len: u8,
    bytes: [u8; 32],
}

impl Commitment {
    const HASHED: u8 = 32;
    const PENDING: u8 = u8::MAX;

    /// The commitment of a node with this encoding, computed on its own:
    /// what the tests hold a level batch's commitments to.
    #[cfg(test)]
    fn of(encoding: &[u8]) -> Self {
        if encoding.len() < 32 {
            Self::inline(encoding)
        } else {
            Self::hashed(keccak256(encoding))
        }
    }

    fn inline(encoding: &[u8]) -> Self {
        let mut bytes = [0u8; 32];
        bytes[..encoding.len()].copy_from_slice(encoding);
        Commitment {
            len: encoding.len() as u8,
            bytes,
        }
    }

    fn hashed(hash: H256) -> Self {
        Commitment {
            len: Self::HASHED,
            bytes: hash.0,
        }
    }

    /// The slot of a node that is yet to be hashed: `level` levels above the
    /// deepest pending node under it, with its own pending children (the
    /// slots of a branch, bit 0 for an extension's) in `children`. (Sixteen
    /// bits of level: a path takes a nibble a node, and the descent's
    /// recursion runs out of stack long before 65 536 of them.)
    fn pending(level: u16, children: u16) -> Self {
        let mut bytes = [0u8; 32];
        bytes[..2].copy_from_slice(&level.to_le_bytes());
        bytes[2..4].copy_from_slice(&children.to_le_bytes());
        Commitment {
            len: Self::PENDING,
            bytes,
        }
    }

    /// The level of a node that is yet to be hashed.
    fn pending_level(&self) -> Option<u16> {
        (self.len == Self::PENDING).then(|| u16::from_le_bytes([self.bytes[0], self.bytes[1]]))
    }

    /// The pending children of a node that is yet to be hashed.
    fn pending_children(&self) -> u16 {
        debug_assert_eq!(self.len, Self::PENDING);
        u16::from_le_bytes([self.bytes[2], self.bytes[3]])
    }

    /// The child's hash, when it is referenced by hash.
    fn hash(&self) -> Option<H256> {
        (self.len == Self::HASHED).then_some(H256(self.bytes))
    }

    /// The hash a node with this commitment has as the root of a trie:
    /// unlike an inner node, a short root is hashed too.
    fn root_hash(&self) -> H256 {
        self.hash()
            .unwrap_or_else(|| keccak256(&self.bytes[..self.len as usize]))
    }

    /// Bytes the reference takes in the parent's encoding.
    fn ref_len(&self) -> usize {
        debug_assert!(self.len <= Self::HASHED, "a pending child is encoded");
        if self.len == Self::HASHED {
            33
        } else {
            self.len as usize
        }
    }

    /// Appends the reference: the hash as a 32-byte string, or the inlined
    /// encoding as it is.
    fn write_ref(&self, out: &mut Vec<u8>) {
        if self.len == Self::HASHED {
            out.push(0x80 + 32);
            out.extend_from_slice(&self.bytes);
        } else {
            out.extend_from_slice(&self.bytes[..self.len as usize]);
        }
    }
}

impl std::fmt::Debug for Commitment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.hash(), self.pending_level()) {
            (Some(hash), _) => write!(f, "{hash:?}"),
            (_, Some(level)) => write!(f, "pending at level {level}"),
            _ => write!(f, "inline {:02x?}", &self.bytes[..self.len as usize]),
        }
    }
}

/// A shared, immutable node. Cloning bumps a refcount.
#[derive(Clone, Debug)]
enum Node {
    Leaf(Arc<Leaf>),
    Extension(Arc<Extension>),
    Branch(Arc<Branch>),
}

/// A committed node: the pointer and, beside it, the commitment its parent
/// embeds.
#[derive(Clone, Debug)]
struct Child {
    node: Node,
    commit: Commitment,
}

#[derive(Debug)]
struct Leaf {
    path: Nibbles,
    value: Vec<u8>,
}

#[derive(Debug)]
struct Extension {
    path: Nibbles,
    child: Child,
}

#[derive(Debug)]
struct Branch {
    children: [Option<Child>; 16],
    value: Option<Vec<u8>>,
}

impl Node {
    fn leaf(path: Nibbles, value: Vec<u8>) -> Node {
        #[cfg(test)]
        counters::bump(&counters::ALLOCATED);
        Node::Leaf(Arc::new(Leaf { path, value }))
    }

    fn extension(path: Nibbles, child: Child) -> Node {
        #[cfg(test)]
        counters::bump(&counters::ALLOCATED);
        Node::Extension(Arc::new(Extension { path, child }))
    }

    fn branch(children: [Option<Child>; 16], value: Option<Vec<u8>>) -> Node {
        #[cfg(test)]
        counters::bump(&counters::ALLOCATED);
        Node::Branch(Arc::new(Branch { children, value }))
    }

    /// The slot a node a descent just built goes into its parent by: pending,
    /// one level above the highest of its children that are pending, at
    /// level zero if none is.
    fn pending(self) -> Child {
        let mut level = 0;
        let mut pending = 0u16;
        let mut note = |n: usize, child: &Child| {
            if let Some(below) = child.commit.pending_level() {
                level = level.max(below + 1);
                pending |= 1 << n;
            }
        };
        match &self {
            Node::Leaf(_) => {}
            Node::Extension(ext) => note(0, &ext.child),
            Node::Branch(branch) => {
                for (n, child) in branch.children.iter().enumerate() {
                    child.iter().for_each(|child| note(n, child));
                }
            }
        }
        Child {
            commit: Commitment::pending(level, pending),
            node: self,
        }
    }
}

/// Node allocations and node hashes made by the current thread, for the
/// structural tests: a batch must create and hash each node on its keys'
/// paths once and no other.
#[cfg(test)]
mod counters {
    use std::cell::Cell;

    thread_local! {
        pub static ALLOCATED: Cell<usize> = const { Cell::new(0) };
        pub static HASHED: Cell<usize> = const { Cell::new(0) };
    }

    pub fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
        counter.with(|c| c.set(c.get() + 1));
    }

    pub fn read(counter: &'static std::thread::LocalKey<Cell<usize>>) -> usize {
        counter.with(Cell::get)
    }
}

// ---------------------------------------------------------------------------
// Node encoding
// ---------------------------------------------------------------------------

/// Length of the RLP string item holding `len` bytes, the first of them
/// `first`.
pub(crate) fn rlp_str_len(len: usize, first: u8) -> usize {
    match len {
        1 if first < 0x80 => 1,
        0..=55 => 1 + len,
        _ => 1 + be_len(len) + len,
    }
}

/// Appends the header of such a string item; its bytes follow.
fn rlp_str_header(len: usize, first: u8, out: &mut Vec<u8>) {
    match len {
        1 if first < 0x80 => {}
        0..=55 => out.push(0x80 + len as u8),
        _ => {
            out.push(0xb7 + be_len(len) as u8);
            out.extend_from_slice(&(len as u64).to_be_bytes()[8 - be_len(len)..]);
        }
    }
}

/// Appends `bytes` as an RLP string item.
pub(crate) fn rlp_str(bytes: &[u8], out: &mut Vec<u8>) {
    rlp_str_header(bytes.len(), bytes.first().copied().unwrap_or(0), out);
    out.extend_from_slice(bytes);
}

/// Appends the header of an RLP list whose items take `payload` bytes.
pub(crate) fn rlp_list_header(payload: usize, out: &mut Vec<u8>) {
    if payload <= 55 {
        out.push(0xc0 + payload as u8);
    } else {
        out.push(0xf7 + be_len(payload) as u8);
        out.extend_from_slice(&(payload as u64).to_be_bytes()[8 - be_len(payload)..]);
    }
}

/// Bytes of the minimal big-endian form of a non-zero length.
fn be_len(len: usize) -> usize {
    8 - (len as u64).leading_zeros() as usize / 8
}

/// The hex-prefix path of a leaf or extension as an RLP string item.
fn path_item_len(path: &Nibbles) -> usize {
    // The first hex-prefix byte is below 0x40, so a one-byte path is its
    // own encoding.
    rlp_str_len(path.hex_prefix_len(), 0)
}

fn path_item(path: &Nibbles, leaf: bool, out: &mut Vec<u8>) {
    rlp_str_header(path.hex_prefix_len(), 0, out);
    path.write_hex_prefix(leaf, out);
}

/// Appends the RLP encoding of `node` to `out`, reserving its length first
/// (exactly that, when `out` is new): the node's own fields and the
/// commitments in its child slots are all it reads.
fn encode_node(node: &Node, out: &mut Vec<u8>) {
    let first = |v: &[u8]| v.first().copied().unwrap_or(0);
    let payload = match node {
        Node::Leaf(leaf) => {
            path_item_len(&leaf.path) + rlp_str_len(leaf.value.len(), first(&leaf.value))
        }
        Node::Extension(ext) => path_item_len(&ext.path) + ext.child.commit.ref_len(),
        Node::Branch(branch) => {
            let refs: usize = branch
                .children
                .iter()
                .map(|c| c.as_ref().map_or(1, |c| c.commit.ref_len()))
                .sum();
            refs + branch
                .value
                .as_ref()
                .map_or(1, |v| rlp_str_len(v.len(), first(v)))
        }
    };
    let header = if payload <= 55 {
        1
    } else {
        1 + be_len(payload)
    };
    out.reserve(header + payload);
    rlp_list_header(payload, out);
    match node {
        Node::Leaf(leaf) => {
            path_item(&leaf.path, true, out);
            rlp_str(&leaf.value, out);
        }
        Node::Extension(ext) => {
            path_item(&ext.path, false, out);
            ext.child.commit.write_ref(out);
        }
        Node::Branch(branch) => {
            for child in &branch.children {
                match child {
                    Some(child) => child.commit.write_ref(out),
                    None => out.push(0x80),
                }
            }
            rlp_str(branch.value.as_deref().unwrap_or(&[]), out);
        }
    }
}

fn encoding_of(node: &Node) -> Vec<u8> {
    let mut out = Vec::new();
    encode_node(node, &mut out);
    out
}

// ---------------------------------------------------------------------------
// The trie
// ---------------------------------------------------------------------------

/// An in-memory Merkle Patricia Trie over byte keys and byte values.
///
/// Cloning is O(1): both tries share all nodes until one of them mutates
/// (copy-on-write along the mutated paths only).
#[derive(Clone, Debug, Default)]
pub struct Trie {
    root: Option<Child>,
}

impl PartialEq for Trie {
    /// The root commitment is a commitment to the contents.
    fn eq(&self, other: &Self) -> bool {
        self.root.as_ref().map(|r| r.commit) == other.root.as_ref().map(|r| r.commit)
    }
}

/// One entry of a batch: a byte key, and its new value (`None`, or an empty
/// value, removes the key).
type Update<K> = (K, Option<Vec<u8>>);

/// Nodes of one level that are encoded into one buffer and hashed as one
/// batch: enough to keep the hash kernel's eight states full, few enough
/// that a cold build's encodings stay in cache until they are hashed (a
/// full branch of hash references is 532 bytes).
const LEVEL_CHUNK: usize = 512;

impl Trie {
    /// An empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value` at `key`. Empty values are equivalent to deletion, as
    /// in Ethereum.
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) {
        self.apply_sorted(&mut [(key, Some(value))]);
    }

    /// Returns the value at `key`, if present.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let mut node = &self.root.as_ref()?.node;
        let mut depth = 0;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return leaf.path.is_key_tail(key, depth).then_some(&leaf.value[..]);
                }
                Node::Extension(ext) => {
                    if ext.path.common_prefix_with_key(0, key, depth) < ext.path.len() {
                        return None;
                    }
                    depth += ext.path.len();
                    node = &ext.child.node;
                }
                Node::Branch(branch) => {
                    if depth == key.len() * 2 {
                        return branch.value.as_deref();
                    }
                    node = &branch.children[nibble_at(key, depth) as usize]
                        .as_ref()?
                        .node;
                    depth += 1;
                }
            }
        }
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let present = self.get(key).is_some();
        if present {
            self.apply_sorted(&mut [(key, None)]);
        }
        present
    }

    /// True iff the trie holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The Merkle root of the current contents. O(1): every mutation leaves
    /// the trie committed.
    pub fn root_hash(&self) -> H256 {
        self.root
            .as_ref()
            .map_or_else(empty_root, |root| root.commit.root_hash())
    }

    /// Collects all (key, value) pairs in lexicographic key order. Keys are
    /// returned as nibble paths packed back into bytes; callers that inserted
    /// even-length byte keys get those bytes back exactly.
    pub fn iter(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            walk(&root.node, &mut Vec::new(), &mut out);
        }
        out
    }

    /// Merkle proof for `key`: the RLP encodings of the nodes on the lookup
    /// path, root first. Verifiable with [`verify_proof`].
    pub fn prove(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let mut proof = Vec::new();
        let mut next = self.root.as_ref();
        let mut depth = 0;
        // Inlined children are already inside their parent's encoding: below
        // the root the proof ends at the first node not referenced by hash.
        while let Some(child) = next.filter(|c| proof.is_empty() || c.commit.hash().is_some()) {
            proof.push(encoding_of(&child.node));
            next = match &child.node {
                Node::Leaf(_) => None,
                Node::Extension(ext) => {
                    let follows = ext.path.common_prefix_with_key(0, key, depth) == ext.path.len();
                    depth += ext.path.len();
                    follows.then_some(&ext.child)
                }
                Node::Branch(branch) if depth < key.len() * 2 => {
                    depth += 1;
                    branch.children[nibble_at(key, depth - 1) as usize].as_ref()
                }
                Node::Branch(_) => None,
            };
        }
        proof
    }

    /// Decomposes the trie into its root hash and every *hashed* node —
    /// `(keccak(encoding), encoding)` for the root and for each node whose
    /// encoding is at least 32 bytes. Shorter nodes are inlined into their
    /// parent's encoding and carry no identity of their own. A node
    /// referenced from several places (identical subtrees) is emitted once
    /// per reference.
    ///
    /// Hashes come from the commitments held in the parents' slots; only the
    /// encodings are written out afresh. So two tries emit the same sorted
    /// node set exactly when their structures and commitments agree: the
    /// structural oracle the tests compare a batch against.
    pub fn commit_nodes(&self) -> (H256, Vec<(H256, Vec<u8>)>) {
        let Some(root) = &self.root else {
            return (empty_root(), Vec::new());
        };
        let mut out = Vec::new();
        collect_hashed_children(&root.node, &mut out);
        let hash = root.commit.root_hash();
        out.push((hash, encoding_of(&root.node)));
        (hash, out)
    }

    /// Applies a batch of inserts (`Some(value)`) and removals (`None`, or
    /// an empty value).
    ///
    /// The batch is sorted and applied in one descent: at each branch the
    /// sorted run splits by nibble, so every node on the batch's paths is
    /// copied and allocated once however many of the keys pass through it,
    /// and the new nodes are then hashed level by level, eight at a time.
    ///
    /// The result is **identical** to applying the updates one by one: MPT
    /// structure is a pure function of the key set, so the root hash and the
    /// node set ([`Trie::commit_nodes`]) are byte-for-byte the same. Of two
    /// updates to one key the later wins, as it would one by one; otherwise
    /// the order within the batch is immaterial.
    pub fn apply_batch(&mut self, mut updates: Vec<(Vec<u8>, Option<Vec<u8>>)>) {
        updates.sort_by(|a, b| a.0.cmp(&b.0));
        updates.dedup_by(|later, earlier| {
            let same_key = later.0 == earlier.0;
            if same_key {
                std::mem::swap(later, earlier);
            }
            same_key
        });
        self.apply_sorted(&mut updates);
    }

    /// Applies updates that are sorted by key and distinct, in one descent,
    /// and hashes the nodes it creates.
    pub(crate) fn apply_sorted<K: AsRef<[u8]>>(&mut self, updates: &mut [Update<K>]) {
        self.apply_sorted_pending(updates);
        commit_levels(self.root.iter_mut());
    }

    /// [`Trie::apply_sorted`] without the hashing: the nodes the descent
    /// creates are left pending, for the caller to hash together with those
    /// of other tries ([`commit_pending`]) before any of them is read.
    pub(crate) fn apply_sorted_pending<K: AsRef<[u8]>>(&mut self, updates: &mut [Update<K>]) {
        debug_assert!(
            updates
                .windows(2)
                .all(|w| w[0].0.as_ref() < w[1].0.as_ref()),
            "batch keys must be sorted and distinct"
        );
        if !updates.is_empty() {
            self.root = apply(self.root.as_ref(), 0, updates).map(Sub::into_child);
        }
    }
}

// ---------------------------------------------------------------------------
// The batch descent
// ---------------------------------------------------------------------------

/// What a batch left of one subtree.
enum Sub {
    /// A node that was there before the batch, committed.
    Kept(Child),
    /// A node this descent created and nothing points at yet. It is still
    /// unique, so if the level above collapses (a branch left with a single
    /// child merges into it) its path can change before it is hashed.
    Fresh(Node),
}

impl Sub {
    /// The subtree as a parent's slot holds it: a fresh node pending, to be
    /// hashed with the rest of its level once the descent is over.
    fn into_child(self) -> Child {
        match self {
            Sub::Kept(child) => child,
            Sub::Fresh(node) => node.pending(),
        }
    }
}

const UNIQUE: &str = "a fresh node has one owner";

/// Hashes every node left pending under `roots` — the subtrees one or more
/// descents returned — level by level from the bottom. A level's nodes embed
/// commitments of lower levels only, so they are encoded into one buffer and
/// hashed as one batch; the nodes of different tries share the batch.
fn commit_levels<'a>(roots: impl Iterator<Item = &'a mut Child>) {
    let mut roots: Vec<&mut Child> = roots.collect();
    let top = roots.iter().filter_map(|root| root.commit.pending_level());
    let Some(top) = top.max() else {
        return;
    };
    let mut encodings = Vec::new();
    let mut ends = Vec::new();
    for level in 0..=top {
        let mut nodes = Vec::new();
        for root in &mut roots {
            collect_level(root, level, &mut nodes);
        }
        for chunk in nodes.chunks_mut(LEVEL_CHUNK) {
            encodings.clear();
            ends.clear();
            for child in chunk.iter() {
                encode_node(&child.node, &mut encodings);
                ends.push(encodings.len());
            }
            let encoding = |i: usize| &encodings[i.checked_sub(1).map_or(0, |j| ends[j])..ends[i]];
            let hashed = (0..chunk.len())
                .map(encoding)
                .filter(|encoding| encoding.len() >= 32);
            let mut hashes = keccak256_batch(hashed).into_iter();
            for (i, child) in chunk.iter_mut().enumerate() {
                child.commit = match encoding(i) {
                    short if short.len() < 32 => Commitment::inline(short),
                    _ => {
                        #[cfg(test)]
                        counters::bump(&counters::HASHED);
                        Commitment::hashed(hashes.next().expect("one hash an encoding"))
                    }
                };
            }
        }
    }
}

/// Collects the pending nodes of `level` at and under `child`. Pending nodes
/// are fresh, so each is reached through its one owner; a branch is entered
/// by the slots it recorded as pending only, the others are not looked at.
fn collect_level<'a>(child: &'a mut Child, level: u16, out: &mut Vec<&'a mut Child>) {
    match child.commit.pending_level() {
        Some(own) if own == level => out.push(child),
        Some(own) if own > level => {
            let pending = child.commit.pending_children();
            match &mut child.node {
                Node::Leaf(_) => unreachable!("a leaf is of level zero"),
                Node::Extension(ext) => {
                    collect_level(&mut Arc::get_mut(ext).expect(UNIQUE).child, level, out)
                }
                Node::Branch(branch) => {
                    let children = &mut Arc::get_mut(branch).expect(UNIQUE).children;
                    for (n, child) in children.iter_mut().enumerate() {
                        if pending >> n & 1 == 1 {
                            let child = child.as_mut().expect("a pending child is there");
                            collect_level(child, level, out);
                        }
                    }
                }
            }
        }
        _ => {}
    }
}

/// Hashes what [`Trie::apply_sorted_pending`] left pending in `tries`, all
/// of them level by level together.
pub(crate) fn commit_pending<'a>(tries: impl Iterator<Item = &'a mut Trie>) {
    commit_levels(tries.filter_map(|trie| trie.root.as_mut()));
}

fn is_insert<K>(update: &Update<K>) -> bool {
    matches!(&update.1, Some(value) if !value.is_empty())
}

/// Applies `updates` — sorted, distinct, all sharing their first `depth`
/// nibbles — to the subtree `old` rooted at that depth. Every node created
/// below the returned one sits pending in its parent's slot; the returned
/// one is left to the caller, which may still merge a path into it.
fn apply<K: AsRef<[u8]>>(
    old: Option<&Child>,
    depth: usize,
    updates: &mut [Update<K>],
) -> Option<Sub> {
    let Some(child) = old else {
        return build(depth, updates, None);
    };
    if updates.is_empty() {
        return Some(Sub::Kept(child.clone()));
    }
    match &child.node {
        Node::Leaf(leaf) => {
            // The leaf is one more entry of the subtree the batch builds,
            // unless the batch rewrites or removes that very key.
            let rewritten = updates
                .iter()
                .any(|u| leaf.path.is_key_tail(u.0.as_ref(), depth));
            if rewritten {
                build(depth, updates, None)
            } else if updates.iter().any(is_insert) {
                build(depth, updates, Some(Resident { leaf, base: depth }))
            } else {
                Some(Sub::Kept(child.clone()))
            }
        }
        Node::Extension(ext) => apply_extension(Some(child), ext, 0, depth, updates),
        Node::Branch(branch) => {
            load_child_counts(branch);
            let (ending, mut rest) = split_ending_at(updates, depth);
            let value = match ending {
                Some(update) => update.1.take().filter(|v| !v.is_empty()),
                None => branch.value.clone(),
            };
            let mut slots: [Option<Sub>; 16] = std::array::from_fn(|_| None);
            let mut touched = 0u16;
            while !rest.is_empty() {
                let (nibble, group, tail) = split_group(rest, depth);
                slots[nibble] = apply(branch.children[nibble].as_ref(), depth + 1, group);
                touched |= 1 << nibble;
                rest = tail;
            }
            let is_touched = |n: usize| touched >> n & 1 == 1;
            let occupied = (0..16)
                .filter(|&n| match is_touched(n) {
                    true => slots[n].is_some(),
                    false => branch.children[n].is_some(),
                })
                .count();
            if occupied + usize::from(value.is_some()) >= 2 {
                // Still a branch: its touched children go into their
                // slots, the others are shared with the old one.
                let children = std::array::from_fn(|n| match is_touched(n) {
                    true => slots[n].take().map(Sub::into_child),
                    false => branch.children[n].clone(),
                });
                return Some(Sub::Fresh(Node::branch(children, value)));
            }
            for n in (0..16).filter(|&n| !is_touched(n)) {
                slots[n] = branch.children[n].clone().map(Sub::Kept);
            }
            finish_branch(slots, value)
        }
    }
}

/// Loads the reference count of every child of a branch that is about to be
/// copied. The copy increments the count of each child it keeps, and in a
/// trie too big for the cache every one of those counts is a miss of its own
/// that the atomic increments would take one after the other; plain loads
/// issued together overlap, and the increments then hit. Worth a tenth of a
/// 263-key commit over 100 000 accounts, nothing measurable over 1 000
/// (EXPERIMENTS.md, "State commitment at hashing cost").
fn load_child_counts(branch: &Branch) {
    let counts: usize = branch
        .children
        .iter()
        .flatten()
        .map(|child| match &child.node {
            Node::Leaf(node) => Arc::strong_count(node),
            Node::Extension(node) => Arc::strong_count(node),
            Node::Branch(node) => Arc::strong_count(node),
        })
        .sum();
    std::hint::black_box(counts);
}

/// Splits off the update whose key ends at nibble `at`, where all of
/// `updates` share their first `at` nibbles: there is at most one, and it
/// sorts first.
fn split_ending_at<K: AsRef<[u8]>>(
    updates: &mut [Update<K>],
    at: usize,
) -> (Option<&mut Update<K>>, &mut [Update<K>]) {
    if updates
        .first()
        .is_some_and(|u| u.0.as_ref().len() * 2 == at)
    {
        let (first, rest) = updates.split_at_mut(1);
        (Some(&mut first[0]), rest)
    } else {
        (None, updates)
    }
}

/// Splits off the leading run of updates that share their nibble at `at`,
/// where all of `updates` share their first `at` nibbles and reach past them.
fn split_group<K: AsRef<[u8]>>(
    updates: &mut [Update<K>],
    at: usize,
) -> (usize, &mut [Update<K>], &mut [Update<K>]) {
    let nibble = nibble_at(updates[0].0.as_ref(), at);
    let end = updates.partition_point(|u| nibble_at(u.0.as_ref(), at) == nibble);
    let (group, tail) = updates.split_at_mut(end);
    (nibble as usize, group, tail)
}

/// Turns sixteen slots and a value into what they canonically are: nothing,
/// a leaf (a value alone), the single child with the slot's nibble merged
/// into its path, or a branch over the slots.
fn finish_branch(mut slots: [Option<Sub>; 16], value: Option<Vec<u8>>) -> Option<Sub> {
    let mut occupied = (0..16).filter(|&n| slots[n].is_some());
    let node = match (occupied.next(), occupied.next(), value) {
        (None, _, None) => return None,
        (None, _, Some(value)) => Node::leaf(Nibbles::default(), value),
        (Some(only), None, None) => {
            let sub = slots[only].take().expect("slot is occupied");
            return Some(prepend(&Nibbles::from_nibbles(&[only as u8]), sub));
        }
        (_, _, value) => Node::branch(slots.map(|slot| slot.map(Sub::into_child)), value),
    };
    Some(Sub::Fresh(node))
}

/// Puts `prefix` in front of a subtree: merged into the path of a leaf or an
/// extension, as a new extension over a branch.
fn prepend(prefix: &Nibbles, sub: Sub) -> Sub {
    if prefix.is_empty() {
        return sub;
    }
    let longer = |path: &mut Nibbles| *path = prefix.concat(path);
    Sub::Fresh(match sub {
        Sub::Kept(child) => match &child.node {
            Node::Leaf(leaf) => Node::leaf(prefix.concat(&leaf.path), leaf.value.clone()),
            Node::Extension(ext) => Node::extension(prefix.concat(&ext.path), ext.child.clone()),
            Node::Branch(_) => Node::extension(prefix.clone(), child),
        },
        Sub::Fresh(Node::Leaf(mut leaf)) => {
            longer(&mut Arc::get_mut(&mut leaf).expect(UNIQUE).path);
            Node::Leaf(leaf)
        }
        Sub::Fresh(Node::Extension(mut ext)) => {
            longer(&mut Arc::get_mut(&mut ext).expect(UNIQUE).path);
            Node::Extension(ext)
        }
        branch @ Sub::Fresh(Node::Branch(_)) => {
            Node::extension(prefix.clone(), branch.into_child())
        }
    })
}

/// A leaf already in the trie that a batch builds a subtree around: one more
/// entry, whose key from nibble `base` on is the leaf's path.
#[derive(Clone, Copy)]
struct Resident<'a> {
    leaf: &'a Leaf,
    base: usize,
}

impl Resident<'_> {
    fn nibble(&self, at: usize) -> usize {
        self.leaf.path.at(at - self.base) as usize
    }

    /// The leaf as it hangs `depth` nibbles down its key.
    fn hung_at(&self, depth: usize) -> Node {
        Node::leaf(
            self.leaf.path.slice_from(depth - self.base),
            self.leaf.value.clone(),
        )
    }
}

/// Nibbles `a` and `b` share from nibble `depth` on, given that they share
/// everything before it.
fn common_prefix(a: &[u8], b: &[u8], depth: usize) -> usize {
    let max = a.len().min(b.len()) * 2 - depth;
    (0..max)
        .find(|&i| nibble_at(a, depth + i) != nibble_at(b, depth + i))
        .unwrap_or(max)
}

/// Builds the subtree at `depth` holding the inserts among `updates` and the
/// `resident` leaf (whose key none of the updates has). Nothing is removed
/// here, so no level can collapse.
fn build<K: AsRef<[u8]>>(
    depth: usize,
    updates: &mut [Update<K>],
    mut resident: Option<Resident>,
) -> Option<Sub> {
    // Removals find nothing to remove. With them trimmed off both ends the
    // run starts and ends on an insert, so its first and last key bound the
    // prefix all of its keys share.
    let Some(first) = updates.iter().position(is_insert) else {
        return resident.map(|r| Sub::Fresh(r.hung_at(depth)));
    };
    let last = updates
        .iter()
        .rposition(is_insert)
        .expect("an insert exists");
    let updates = &mut updates[first..=last];
    if updates.len() == 1 && resident.is_none() {
        let (key, value) = &mut updates[0];
        let value = value.take().expect("checked to be an insert");
        return Some(Sub::Fresh(Node::leaf(
            Nibbles::from_key(key.as_ref(), depth),
            value,
        )));
    }

    let lowest = updates[0].0.as_ref();
    let mut shared = common_prefix(lowest, updates[updates.len() - 1].0.as_ref(), depth);
    if let Some(r) = &resident {
        let along = r
            .leaf
            .path
            .common_prefix_with_key(depth - r.base, lowest, depth);
        shared = shared.min(along);
    }
    // Two or more distinct keys part ways `shared` nibbles down (or one of
    // them ends there): a branch, under an extension when `shared > 0`.
    let at = depth + shared;
    let prefix = Nibbles::from_fn(shared, |i| nibble_at(lowest, depth + i));

    let (ending, mut rest) = split_ending_at(updates, at);
    let mut value = ending.and_then(|update| update.1.take());
    if let Some(r) = resident.filter(|r| r.base + r.leaf.path.len() == at) {
        value = Some(r.leaf.value.clone());
        resident = None;
    }
    let mut slots: [Option<Sub>; 16] = std::array::from_fn(|_| None);
    while !rest.is_empty() {
        let (nibble, group, tail) = split_group(rest, at);
        let here = resident.take_if(|r| r.nibble(at) == nibble);
        slots[nibble] = build(at + 1, group, here);
        rest = tail;
    }
    if let Some(r) = resident {
        slots[r.nibble(at)] = Some(Sub::Fresh(r.hung_at(at + 1)));
    }
    let branch = Node::branch(slots.map(|slot| slot.map(Sub::into_child)), value);
    Some(prepend(&prefix, Sub::Fresh(branch)))
}

/// Applies `updates` to the extension `ext` seen from `from` nibbles down its
/// path (`depth` nibbles down the keys): an extension that forks is handled
/// as the branch at the fork with the rest of the path hanging under one of
/// its slots. `old` is the extension's own handle, for `from == 0`.
fn apply_extension<K: AsRef<[u8]>>(
    old: Option<&Child>,
    ext: &Extension,
    from: usize,
    depth: usize,
    updates: &mut [Update<K>],
) -> Option<Sub> {
    let span = ext.path.len() - from;
    if span == 0 {
        return apply(Some(&ext.child), depth, updates);
    }
    let follows = |u: &Update<K>| ext.path.common_prefix_with_key(from, u.0.as_ref(), depth);
    // The updates that follow the path at least `reach` nibbles are one run
    // of the sorted batch.
    let run = |updates: &[Update<K>], reach: usize| {
        let start = updates.iter().position(|u| follows(u) >= reach);
        start.map_or(0..0, |start| {
            let end = updates
                .iter()
                .rposition(|u| follows(u) >= reach)
                .expect("one exists");
            start..end + 1
        })
    };
    // An insert that leaves the path forks it; a removal that leaves it
    // removes nothing.
    let fork = updates
        .iter()
        .filter(|u| is_insert(u))
        .map(follows)
        .min()
        .filter(|&reach| reach < span);
    let Some(shared) = fork else {
        let through = run(updates, span);
        if through.is_empty() {
            return Some(extension_tail(old, ext, from));
        }
        let below = apply(Some(&ext.child), depth + span, &mut updates[through])?;
        return Some(match (&below, old) {
            (Sub::Kept(child), Some(old)) if same_node(&child.node, &ext.child.node) => {
                Sub::Kept(old.clone())
            }
            _ => prepend(&ext.path.slice_from(from), below),
        });
    };

    let at = depth + shared;
    let reach = run(updates, shared);
    let (ending, mut rest) = split_ending_at(&mut updates[reach], at);
    let value = ending.and_then(|update| update.1.take().filter(|v| !v.is_empty()));
    let onward = ext.path.at(from + shared) as usize;
    let mut slots: [Option<Sub>; 16] = std::array::from_fn(|_| None);
    let mut onward_untouched = true;
    while !rest.is_empty() {
        let (nibble, group, tail) = split_group(rest, at);
        slots[nibble] = if nibble == onward {
            onward_untouched = false;
            apply_extension(None, ext, from + shared + 1, at + 1, group)
        } else {
            build(at + 1, group, None)
        };
        rest = tail;
    }
    if onward_untouched {
        slots[onward] = Some(extension_tail(None, ext, from + shared + 1));
    }
    let forked = finish_branch(slots, value)?;
    Some(prepend(&ext.path.slice(from, from + shared), forked))
}

/// The extension from `from` nibbles down its path on: itself, its child
/// when the path is used up, or a shorter extension over that child.
fn extension_tail(old: Option<&Child>, ext: &Extension, from: usize) -> Sub {
    match old {
        Some(old) => Sub::Kept(old.clone()),
        None if from == ext.path.len() => Sub::Kept(ext.child.clone()),
        None => Sub::Fresh(Node::extension(
            ext.path.slice_from(from),
            ext.child.clone(),
        )),
    }
}

fn same_node(a: &Node, b: &Node) -> bool {
    match (a, b) {
        (Node::Leaf(a), Node::Leaf(b)) => Arc::ptr_eq(a, b),
        (Node::Extension(a), Node::Extension(b)) => Arc::ptr_eq(a, b),
        (Node::Branch(a), Node::Branch(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Node decomposition
// ---------------------------------------------------------------------------

/// Post-order collection of every hashed descendant reachable from `node`
/// (the node itself is NOT emitted — the caller handles it, because the root
/// is emitted unconditionally while inner nodes only when hashed).
///
/// An inlined child (encoding < 32 bytes) cannot itself reference a hashed
/// node — a 33-byte hash reference would not fit — so recursion only follows
/// hash-referenced children.
fn collect_hashed_children(node: &Node, out: &mut Vec<(H256, Vec<u8>)>) {
    let mut push_child = |child: &Child| {
        if let Some(hash) = child.commit.hash() {
            collect_hashed_children(&child.node, out);
            out.push((hash, encoding_of(&child.node)));
        }
    };
    match node {
        Node::Leaf(_) => {}
        Node::Extension(ext) => push_child(&ext.child),
        Node::Branch(branch) => branch.children.iter().flatten().for_each(push_child),
    }
}

// ---------------------------------------------------------------------------
// Iteration and proofs
// ---------------------------------------------------------------------------

fn walk(node: &Node, prefix: &mut Vec<u8>, out: &mut Vec<(Vec<u8>, Vec<u8>)>) {
    let extend = |prefix: &mut Vec<u8>, path: &Nibbles| {
        prefix.extend((0..path.len()).map(|i| path.at(i)));
    };
    match node {
        Node::Leaf(leaf) => {
            let len = prefix.len();
            extend(prefix, &leaf.path);
            out.push((pack_nibbles(prefix), leaf.value.clone()));
            prefix.truncate(len);
        }
        Node::Extension(ext) => {
            let len = prefix.len();
            extend(prefix, &ext.path);
            walk(&ext.child.node, prefix, out);
            prefix.truncate(len);
        }
        Node::Branch(branch) => {
            if let Some(v) = &branch.value {
                out.push((pack_nibbles(prefix), v.clone()));
            }
            for (i, child) in branch.children.iter().enumerate() {
                if let Some(child) = child {
                    prefix.push(i as u8);
                    walk(&child.node, prefix, out);
                    prefix.pop();
                }
            }
        }
    }
}

fn pack_nibbles(nibbles: &[u8]) -> Vec<u8> {
    debug_assert!(
        nibbles.len().is_multiple_of(2),
        "byte keys have even nibble count"
    );
    nibbles
        .chunks(2)
        .map(|p| p[0] << 4 | p.get(1).copied().unwrap_or(0))
        .collect()
}

/// The items of one encoded node, borrowed from its bytes: what a proof check
/// tells apart.
// Lives on the stack for the length of one node read; boxing the branch
// arm would put an allocation there instead.
#[allow(clippy::large_enum_variant)]
enum NodeItems<'a> {
    /// Leaf or extension: the decoded path, the leaf flag, and the value
    /// (leaf) or child reference (extension).
    Short(Nibbles, bool, Token<'a>),
    /// The sixteen child references and the value (empty for none).
    Branch([Token<'a>; 16], &'a [u8]),
}

/// Reads a node's item list into its shape; `None` marks a malformed node.
fn node_items(mut list: Reader<'_>) -> Option<NodeItems<'_>> {
    match list.count().ok()? {
        2 => {
            let (path, is_leaf) = Nibbles::from_hex_prefix(list.bytes().ok()?)?;
            Some(NodeItems::Short(path, is_leaf, list.next_item().ok()?))
        }
        17 => {
            let mut children = [Token::Str(&[]); 16];
            for child in &mut children {
                *child = list.next_item().ok()?;
            }
            Some(NodeItems::Branch(children, list.bytes().ok()?))
        }
        _ => None,
    }
}

/// Verifies a Merkle proof produced by [`Trie::prove`].
///
/// Returns `Ok(Some(value))` when the proof shows `key` present with that
/// value, `Ok(None)` when it shows absence, and `Err` when the proof is
/// inconsistent with `root`.
pub fn verify_proof(
    root: H256,
    key: &[u8],
    proof: &[Vec<u8>],
) -> Result<Option<Vec<u8>>, ProofError> {
    if proof.is_empty() {
        return if root == empty_root() {
            Ok(None)
        } else {
            Err(ProofError::Empty)
        };
    }
    let mut expected = Expected::Hash(root);
    let mut depth = 0usize;
    let mut idx = 0usize;
    loop {
        let items = match expected {
            Expected::Hash(h) => {
                let bytes = proof.get(idx).ok_or(ProofError::Truncated)?;
                idx += 1;
                if keccak256(bytes) != h {
                    return Err(ProofError::HashMismatch);
                }
                // A proof node is checked whole, off-path children included
                // (an inlined node was checked with the node it sits in).
                let mut whole = Reader::new(bytes);
                whole.skip().map_err(|_| ProofError::BadNode)?;
                rlp::decode_list(bytes).map_err(|_| ProofError::BadNode)?
            }
            Expected::Inline(items) => items,
        };
        let child = match node_items(items).ok_or(ProofError::BadNode)? {
            NodeItems::Short(npath, true, value) => {
                return match value {
                    _ if !npath.is_key_tail(key, depth) => Ok(None),
                    Token::Str(value) => Ok(Some(value.to_vec())),
                    Token::List(_) => Err(ProofError::BadNode),
                };
            }
            NodeItems::Short(npath, false, child) => {
                if npath.common_prefix_with_key(0, key, depth) != npath.len() {
                    return Ok(None);
                }
                depth += npath.len();
                child
            }
            NodeItems::Branch(children, value) => {
                if depth == key.len() * 2 {
                    return Ok((!value.is_empty()).then(|| value.to_vec()));
                }
                let child = children[nibble_at(key, depth) as usize];
                depth += 1;
                if matches!(child, Token::Str([])) {
                    return Ok(None);
                }
                child
            }
        };
        expected = match child {
            Token::Str(b) => Expected::Hash(H256(b.try_into().map_err(|_| ProofError::BadNode)?)),
            // An inlined node is a list inside the parent.
            Token::List(inline) => Expected::Inline(inline),
        };
    }
}

enum Expected<'a> {
    Hash(H256),
    Inline(Reader<'a>),
}

/// Proof verification failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProofError {
    /// Proof empty for a non-empty root.
    Empty,
    /// Proof ran out of nodes.
    Truncated,
    /// A node's hash did not match its parent's reference.
    HashMismatch,
    /// A node failed to decode.
    BadNode,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trie_root_matches_ethereum() {
        let t = Trie::new();
        assert_eq!(
            format!("{:?}", t.root_hash()),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
        );
        assert_eq!(empty_root(), keccak256(&[0x80]));
        assert!(t.is_empty());
    }

    #[test]
    fn ethereum_foundation_fixture_root() {
        // The "branching" fixture from ethereum/tests trietest.json
        // (non-secure trie).
        let mut t = Trie::new();
        t.insert(b"do", b"verb".to_vec());
        t.insert(b"dog", b"puppy".to_vec());
        t.insert(b"doge", b"coin".to_vec());
        t.insert(b"horse", b"stallion".to_vec());
        assert_eq!(
            format!("{:?}", t.root_hash()),
            "0x5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
        );
    }

    #[test]
    fn insert_get_basic() {
        let mut t = Trie::new();
        t.insert(b"key1", b"value1".to_vec());
        t.insert(b"key2", b"value2".to_vec());
        assert_eq!(t.get(b"key1"), Some(&b"value1"[..]));
        assert_eq!(t.get(b"key2"), Some(&b"value2"[..]));
        assert_eq!(t.get(b"key3"), None);
    }

    #[test]
    fn overwrite_updates_value_and_root() {
        let mut t = Trie::new();
        t.insert(b"k", b"v1".to_vec());
        let r1 = t.root_hash();
        t.insert(b"k", b"v2".to_vec());
        assert_eq!(t.get(b"k"), Some(&b"v2"[..]));
        assert_ne!(t.root_hash(), r1);
        t.insert(b"k", b"v1".to_vec());
        assert_eq!(t.root_hash(), r1);
    }

    #[test]
    fn root_is_insertion_order_independent() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..50u32)
            .map(|i| (i.to_be_bytes().to_vec(), format!("value-{i}").into_bytes()))
            .collect();
        let mut t1 = Trie::new();
        for (k, v) in &pairs {
            t1.insert(k, v.clone());
        }
        let mut t2 = Trie::new();
        for (k, v) in pairs.iter().rev() {
            t2.insert(k, v.clone());
        }
        assert_eq!(t1.root_hash(), t2.root_hash());
    }

    #[test]
    fn remove_restores_previous_root() {
        let mut t = Trie::new();
        t.insert(b"do", b"verb".to_vec());
        t.insert(b"dog", b"puppy".to_vec());
        let before = t.root_hash();
        t.insert(b"doge", b"coin".to_vec());
        assert!(t.remove(b"doge"));
        assert_eq!(t.root_hash(), before);
        assert!(!t.remove(b"doge"));
    }

    #[test]
    fn remove_everything_empties() {
        let mut t = Trie::new();
        let keys: Vec<Vec<u8>> = (0..30u32).map(|i| i.to_be_bytes().to_vec()).collect();
        for k in &keys {
            t.insert(k, b"x".to_vec());
        }
        for k in &keys {
            assert!(t.remove(k), "missing {k:?}");
        }
        assert!(t.is_empty());
        assert_eq!(t.root_hash(), empty_root());
    }

    #[test]
    fn empty_value_insert_is_delete() {
        let mut t = Trie::new();
        t.insert(b"a", b"1".to_vec());
        t.insert(b"a", Vec::new());
        assert!(t.is_empty());
    }

    #[test]
    fn branch_value_paths() {
        // "a" is a strict prefix of "ab": forces a branch with a value.
        let mut t = Trie::new();
        t.insert(b"a", b"short".to_vec());
        t.insert(b"ab", b"longer".to_vec());
        assert_eq!(t.get(b"a"), Some(&b"short"[..]));
        assert_eq!(t.get(b"ab"), Some(&b"longer"[..]));
        assert!(t.remove(b"a"));
        assert_eq!(t.get(b"ab"), Some(&b"longer"[..]));
        // After removing the branch value the trie must collapse back to a
        // single leaf with the same root as a fresh insert.
        let mut fresh = Trie::new();
        fresh.insert(b"ab", b"longer".to_vec());
        assert_eq!(t.root_hash(), fresh.root_hash());
    }

    #[test]
    fn iter_returns_sorted_pairs() {
        let mut t = Trie::new();
        t.insert(b"dog", b"puppy".to_vec());
        t.insert(b"cat", b"meow".to_vec());
        t.insert(b"bird", b"tweet".to_vec());
        let items = t.iter();
        let keys: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"bird"[..], &b"cat"[..], &b"dog"[..]]);
    }

    #[test]
    fn clone_shares_structure_and_diverges_on_write() {
        let mut t = Trie::new();
        for i in 0..100u32 {
            t.insert(&i.to_be_bytes(), format!("v{i}").into_bytes());
        }
        let root = t.root_hash();
        let snap = t.clone();
        // Mutating the original must not disturb the clone…
        t.insert(&7u32.to_be_bytes(), b"changed".to_vec());
        t.remove(&55u32.to_be_bytes());
        assert_eq!(snap.root_hash(), root);
        assert_eq!(snap.get(&7u32.to_be_bytes()), Some(&b"v7"[..]));
        assert_eq!(snap.get(&55u32.to_be_bytes()), Some(&b"v55"[..]));
        // …and the mutated trie equals a fresh build of the same contents.
        let mut fresh = Trie::new();
        for i in 0..100u32 {
            if i == 55 {
                continue;
            }
            let v = if i == 7 {
                b"changed".to_vec()
            } else {
                format!("v{i}").into_bytes()
            };
            fresh.insert(&i.to_be_bytes(), v);
        }
        assert_eq!(t.root_hash(), fresh.root_hash());
    }

    #[test]
    fn memoized_root_survives_interleaved_reads_and_writes() {
        let mut t = Trie::new();
        let mut reference = Trie::new();
        for i in 0..60u32 {
            t.insert(&i.to_be_bytes(), format!("v{i}").into_bytes());
            // Force memoization mid-build; the final root must still match a
            // build that never hashed intermediate states.
            let _ = t.root_hash();
            reference.insert(&i.to_be_bytes(), format!("v{i}").into_bytes());
        }
        assert_eq!(t.root_hash(), reference.root_hash());
        assert_eq!(t.commit_nodes().0, reference.commit_nodes().0);
    }

    #[test]
    fn proof_of_present_key_verifies() {
        let mut t = Trie::new();
        for i in 0..100u32 {
            t.insert(&i.to_be_bytes(), format!("v{i}").into_bytes());
        }
        let root = t.root_hash();
        for i in [0u32, 7, 55, 99] {
            let proof = t.prove(&i.to_be_bytes());
            let got = verify_proof(root, &i.to_be_bytes(), &proof).unwrap();
            assert_eq!(got, Some(format!("v{i}").into_bytes()));
        }
    }

    #[test]
    fn proof_of_absent_key_verifies_absence() {
        let mut t = Trie::new();
        for i in 0..20u32 {
            t.insert(&i.to_be_bytes(), b"v".to_vec());
        }
        let root = t.root_hash();
        let absent = 999u32.to_be_bytes();
        let proof = t.prove(&absent);
        assert_eq!(verify_proof(root, &absent, &proof).unwrap(), None);
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut t = Trie::new();
        for i in 0..50u32 {
            t.insert(&i.to_be_bytes(), format!("value-{i}").into_bytes());
        }
        let root = t.root_hash();
        let key = 7u32.to_be_bytes();
        let mut proof = t.prove(&key);
        assert!(!proof.is_empty());
        // Flip one byte in the first (root) node.
        proof[0][1] ^= 0xFF;
        assert!(verify_proof(root, &key, &proof).is_err());
    }

    #[test]
    fn wrong_root_rejected() {
        let mut t = Trie::new();
        t.insert(b"hello", b"world".to_vec());
        let proof = t.prove(b"hello");
        let bad_root = H256::from_low_u64(123);
        assert!(verify_proof(bad_root, b"hello", &proof).is_err());
    }

    #[test]
    fn commit_nodes_empty_trie() {
        let (root, nodes) = Trie::new().commit_nodes();
        assert_eq!(root, empty_root());
        assert!(nodes.is_empty());
    }

    #[test]
    fn commit_nodes_emits_each_hashed_node_under_its_hash() {
        let mut t = Trie::new();
        for i in 0..200u32 {
            t.insert(&i.to_be_bytes(), format!("value-{i}").into_bytes());
        }
        let (root, nodes) = t.commit_nodes();
        assert_eq!(root, t.root_hash());
        // Every emitted node hashes to its key and is >= 32 bytes (hashed,
        // not inlined); the root comes last.
        for (h, enc) in &nodes {
            assert_eq!(keccak256(enc), *h);
            assert!(enc.len() >= 32);
        }
        assert_eq!(nodes.last().map(|(h, _)| *h), Some(root));
    }

    #[test]
    fn incremental_commit_nodes_match_fresh_build() {
        // commit_nodes on a trie mutated after a prior commit (memo warm)
        // must emit exactly what a cold build of the same contents emits.
        let mut t = Trie::new();
        for i in 0..150u32 {
            t.insert(&i.to_be_bytes(), format!("value-{i}").into_bytes());
        }
        let _ = t.commit_nodes(); // warm the memo
        t.insert(&3u32.to_be_bytes(), b"mutated".to_vec());
        t.remove(&77u32.to_be_bytes());
        let (root_inc, mut nodes_inc) = t.commit_nodes();

        let mut fresh = Trie::new();
        for i in 0..150u32 {
            if i == 77 {
                continue;
            }
            let v = if i == 3 {
                b"mutated".to_vec()
            } else {
                format!("value-{i}").into_bytes()
            };
            fresh.insert(&i.to_be_bytes(), v);
        }
        let (root_cold, mut nodes_cold) = fresh.commit_nodes();
        assert_eq!(root_inc, root_cold);
        nodes_inc.sort();
        nodes_cold.sort();
        assert_eq!(nodes_inc, nodes_cold);
    }

    /// Hashed (keccak-style) keys, as the account and storage tries use.
    fn hashed_key(i: u64) -> Vec<u8> {
        keccak256(&i.to_be_bytes()).as_bytes().to_vec()
    }

    /// The reference a batch is checked against: its updates applied one
    /// `insert`/`remove` at a time.
    fn one_by_one(trie: &mut Trie, updates: &[(Vec<u8>, Option<Vec<u8>>)]) {
        for (key, update) in updates {
            match update {
                Some(value) => trie.insert(key, value.clone()),
                None => {
                    trie.remove(key);
                }
            }
        }
    }

    #[test]
    fn apply_batch_fresh_build_matches_serial() {
        let updates: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..300u64)
            .map(|i| (hashed_key(i), Some(format!("value-{i}").into_bytes())))
            .collect();
        let mut reference = Trie::new();
        one_by_one(&mut reference, &updates);
        let (ref_root, mut ref_nodes) = reference.commit_nodes();
        ref_nodes.sort();
        let mut t = Trie::new();
        t.apply_batch(updates);
        let (root, mut nodes) = t.commit_nodes();
        assert_eq!(root, ref_root);
        nodes.sort();
        assert_eq!(nodes, ref_nodes);
    }

    #[test]
    fn apply_batch_incremental_mix_matches_serial() {
        // Warm trie + a batch mixing overwrites, inserts, removals of
        // present and absent keys, and empty-value inserts (deletes).
        let first: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..200u64)
            .map(|i| (hashed_key(i), Some(vec![1, 2, 3])))
            .collect();
        let second: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..300u64)
            .map(|i| {
                let update = match i % 4 {
                    0 => Some(format!("over-{i}").into_bytes()),
                    1 => None,
                    2 => Some(Vec::new()),
                    _ => Some(vec![7; 40]),
                };
                (hashed_key(i), update)
            })
            .collect();
        let mut reference = Trie::new();
        one_by_one(&mut reference, &first);
        one_by_one(&mut reference, &second);
        let (ref_root, mut ref_nodes) = reference.commit_nodes();
        ref_nodes.sort();
        let mut t = Trie::new();
        t.apply_batch(first);
        t.apply_batch(second);
        let (root, mut nodes) = t.commit_nodes();
        assert_eq!(root, ref_root);
        nodes.sort();
        assert_eq!(nodes, ref_nodes);
        assert_eq!(t.iter(), reference.iter());
    }

    #[test]
    fn apply_batch_drains_to_empty() {
        let mut full = Trie::new();
        full.apply_batch(
            (0..100u64)
                .map(|i| (hashed_key(i), Some(vec![1])))
                .collect(),
        );
        full.apply_batch((0..100u64).map(|i| (hashed_key(i), None)).collect());
        assert!(full.is_empty());
        assert_eq!(full.root_hash(), empty_root());
    }

    // ---- the batch descent: shapes, sharing and the once-per-node rule ----

    fn batch(entries: &[(&[u8], Option<&[u8]>)]) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        entries
            .iter()
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect()
    }

    /// Applies `updates` to a clone of `base` as one batch and one by one,
    /// and checks the two agree on root, node list and contents.
    fn assert_batch_matches_one_by_one(base: &Trie, updates: &[(Vec<u8>, Option<Vec<u8>>)]) {
        let mut reference = base.clone();
        one_by_one(&mut reference, updates);
        let (ref_root, mut ref_nodes) = reference.commit_nodes();
        ref_nodes.sort();
        let mut batched = base.clone();
        batched.apply_batch(updates.to_vec());
        let (root, mut nodes) = batched.commit_nodes();
        assert_eq!(root, ref_root);
        nodes.sort();
        assert_eq!(nodes, ref_nodes);
        assert_eq!(batched.iter(), reference.iter());
        assert_eq!(batched, reference);
        assert_commitments_hold(&batched);
    }

    /// Every commitment held beside a pointer — the handle's for the root,
    /// each slot's for a child — is what the node itself encodes to.
    fn assert_commitments_hold(trie: &Trie) {
        fn check(child: &Child) {
            assert_eq!(child.commit, Commitment::of(&encoding_of(&child.node)));
            match &child.node {
                Node::Leaf(_) => {}
                Node::Extension(ext) => check(&ext.child),
                Node::Branch(branch) => branch.children.iter().flatten().for_each(check),
            }
        }
        if let Some(root) = &trie.root {
            check(root);
        }
    }

    #[test]
    fn batch_removal_collapses_a_branch_into_a_leaf_or_an_extension() {
        let long = [7u8; 40];
        let mut base = Trie::new();
        for key in [
            &b"\x12\x34\x50"[..],
            b"\x12\x34\x61",
            b"\x12\x34\x62",
            b"\x12\x99",
        ] {
            base.insert(key, long.to_vec());
        }
        // Dropping \x12\x99 leaves the branch under nibbles 1,2 with one
        // child: it merges into the extension above the 3,4 branch.
        assert_batch_matches_one_by_one(&base, &batch(&[(b"\x12\x99", None)]));
        // Dropping both \x61 and \x62 leaves the 6-branch empty and the
        // branch above it with one leaf: two levels collapse at once.
        assert_batch_matches_one_by_one(
            &base,
            &batch(&[(b"\x12\x34\x61", None), (b"\x12\x34\x62", None)]),
        );
        // Everything but one key goes: the whole trie folds into one leaf.
        assert_batch_matches_one_by_one(
            &base,
            &batch(&[
                (b"\x12\x34\x50", None),
                (b"\x12\x34\x61", Some(b"")),
                (b"\x12\x99", None),
                (b"\xab", None),
            ]),
        );
        // A removal and an insert under the same collapsing branch.
        assert_batch_matches_one_by_one(
            &base,
            &batch(&[(b"\x12\x99", None), (b"\x12\x34\x63", Some(&long))]),
        );
    }

    #[test]
    fn batch_splits_extensions_and_leaves() {
        let long = [9u8; 33];
        let mut base = Trie::new();
        base.insert(b"\x12\x34\x56\x01", long.to_vec());
        base.insert(b"\x12\x34\x56\x02", long.to_vec());
        // The root is an extension over 1,2,3,4,5,6,0: fork it at its first
        // nibble, in its middle, at its last nibble, and twice at once; end
        // a key inside it (a branch value) and below it.
        for updates in [
            batch(&[(b"\x92", Some(&long))]),
            batch(&[(b"\x12\x39", Some(&long))]),
            batch(&[(b"\x12\x34\x56\x11", Some(&long))]),
            batch(&[(b"\x12\x39", Some(&long)), (b"\x12\x34\x77", Some(b"x"))]),
            batch(&[(b"\x12\x34", Some(b"inside")), (b"\x13", None)]),
            batch(&[
                (b"\x12\x34\x56\x01\x00", Some(b"below")),
                (b"\x12\x34\x56", Some(b"v")),
            ]),
            batch(&[(b"\x12\x34\x56\x01", None), (b"\x12\x35", Some(&long))]),
            batch(&[
                (b"\x12\x34\x56\x01", None),
                (b"\x12\x34\x56\x02", None),
                (b"\x55", Some(b"z")),
            ]),
        ] {
            assert_batch_matches_one_by_one(&base, &updates);
        }
        // A single leaf split by keys before it, after it and through it.
        let mut leaf = Trie::new();
        leaf.insert(b"\x44\x44", long.to_vec());
        assert_batch_matches_one_by_one(
            &leaf,
            &batch(&[
                (b"\x44", Some(b"prefix")),
                (b"\x44\x40", Some(&long)),
                (b"\x44\x44\x44", Some(b"suffix")),
                (b"\x45", None),
            ]),
        );
    }

    #[test]
    fn batch_handles_inline_nodes_root_values_and_cold_builds() {
        // One- and two-byte values keep whole subtrees under 32 bytes, so
        // they are inlined in their parents; a long value forces a hash.
        let cold = batch(&[
            (b"", Some(b"root value")),
            (b"\x01", Some(b"a")),
            (b"\x01\x23", Some(b"b")),
            (b"\x01\x24", Some(b"c")),
            (b"\x02", Some(&[5u8; 64])),
            (b"\x03", Some(b"")),
        ]);
        assert_batch_matches_one_by_one(&Trie::new(), &cold);
        let mut base = Trie::new();
        base.apply_batch(cold);
        assert_eq!(base.get(b""), Some(&b"root value"[..]));
        assert_eq!(base.get(b"\x03"), None);
        assert_batch_matches_one_by_one(
            &base,
            &batch(&[
                (b"", None),
                (b"\x01\x23", Some(b"bb")),
                (b"\x01\x25", Some(b"d")),
            ]),
        );
        assert_batch_matches_one_by_one(
            &base,
            &batch(&[(b"", Some(b"")), (b"\x01", None), (b"\x02", None)]),
        );
        // Of two updates to one key the later wins, as one by one.
        assert_batch_matches_one_by_one(
            &base,
            &batch(&[
                (b"\x01\x23", Some(b"first")),
                (b"\x02", None),
                (b"\x01\x23", Some(b"second")),
                (b"\x02", Some(b"back")),
                (b"\x01\x23", None),
            ]),
        );
        // Draining a trie by batch lands on the empty root.
        let mut drained = base.clone();
        drained.apply_batch(base.iter().into_iter().map(|(k, _)| (k, None)).collect());
        assert!(drained.is_empty());
        assert_eq!(drained.root_hash(), empty_root());
    }

    #[test]
    fn batch_of_nested_keys_is_hundreds_of_levels_deep() {
        // Each key a prefix of the next: a branch with a value and an
        // extension a byte, one fresh node under the other 400 deep.
        let nested: Vec<(Vec<u8>, Option<Vec<u8>>)> = (1..=200)
            .map(|n| (vec![0x61; n], Some(vec![n as u8; 40])))
            .collect();
        assert_batch_matches_one_by_one(&Trie::new(), &nested);
    }

    #[test]
    fn remove_of_an_absent_key_changes_nothing() {
        let mut t = Trie::new();
        for i in 0..40u32 {
            t.insert(&i.to_be_bytes(), vec![i as u8; 40]);
        }
        let before = counters::read(&counters::ALLOCATED);
        assert!(!t.remove(&99u32.to_be_bytes()));
        assert_eq!(counters::read(&counters::ALLOCATED), before);
    }

    /// Addresses of the nodes a lookup of `key` visits, the last one
    /// included even when it turns the lookup away.
    fn visited(trie: &Trie, key: &[u8], out: &mut std::collections::HashSet<usize>) {
        let mut next = trie.root.as_ref().map(|r| &r.node);
        let mut depth = 0;
        while let Some(node) = next {
            out.insert(address(node));
            next = match node {
                Node::Leaf(_) => None,
                Node::Extension(ext) => {
                    let follows = ext.path.common_prefix_with_key(0, key, depth) == ext.path.len();
                    depth += ext.path.len();
                    follows.then_some(&ext.child.node)
                }
                Node::Branch(branch) => {
                    depth += 1;
                    branch.children[nibble_at(key, depth - 1) as usize]
                        .as_ref()
                        .map(|c| &c.node)
                }
            };
        }
    }

    fn address(node: &Node) -> usize {
        match node {
            Node::Leaf(n) => Arc::as_ptr(n) as usize,
            Node::Extension(n) => Arc::as_ptr(n) as usize,
            Node::Branch(n) => Arc::as_ptr(n) as usize,
        }
    }

    /// One node of a trie, as the structural test sees it.
    struct Seen {
        address: usize,
        parent: usize,
        by_hash: bool,
        is_branch: bool,
    }

    fn all_nodes(trie: &Trie) -> Vec<Seen> {
        fn collect(child: &Child, parent: usize, out: &mut Vec<Seen>) {
            let address = address(&child.node);
            out.push(Seen {
                address,
                parent,
                by_hash: child.commit.hash().is_some(),
                is_branch: matches!(child.node, Node::Branch(_)),
            });
            match &child.node {
                Node::Leaf(_) => {}
                Node::Extension(ext) => collect(&ext.child, address, out),
                Node::Branch(branch) => branch
                    .children
                    .iter()
                    .flatten()
                    .for_each(|c| collect(c, address, out)),
            }
        }
        let mut out = Vec::new();
        if let Some(root) = &trie.root {
            collect(root, 0, &mut out);
        }
        out
    }

    fn addresses(trie: &Trie) -> std::collections::HashSet<usize> {
        all_nodes(trie).iter().map(|n| n.address).collect()
    }

    #[test]
    fn batch_over_a_shared_trie_creates_and_hashes_each_touched_node_once() {
        const KEYS: u64 = 100_000;
        let body = |i: u64, salt: u8| {
            let mut v = vec![salt; 70];
            v[..8].copy_from_slice(&i.to_be_bytes());
            v
        };
        let mut before = Trie::new();
        before.apply_batch(
            (0..KEYS)
                .map(|i| (hashed_key(i), Some(body(i, 0))))
                .collect(),
        );
        let before_root = before.root_hash();
        let before_nodes = addresses(&before);
        // The cold build itself made each of its nodes once.
        assert!(before_nodes.len() > KEYS as usize);

        // Overwrites, fresh keys (which split leaves) and removals (which
        // fold branches).
        let updates: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..200u64)
            .map(|j| (hashed_key(j * 487 % KEYS), Some(body(j, 1))))
            .chain((0..40).map(|j| (hashed_key(KEYS + j), Some(body(j, 2)))))
            .chain((0..23).map(|j| (hashed_key(50_000 + j * 31), None)))
            .collect();
        let mut after = before.clone();
        let allocated = counters::read(&counters::ALLOCATED);
        let hashed = counters::read(&counters::HASHED);
        after.apply_batch(updates.clone());
        let allocated = counters::read(&counters::ALLOCATED) - allocated;
        let hashed = counters::read(&counters::HASHED) - hashed;

        // The clone taken before the batch still is what it was.
        assert_eq!(before.root_hash(), before_root);
        assert_eq!(before.get(&hashed_key(0)), Some(&body(0, 0)[..]));
        assert_eq!(before.get(&hashed_key(KEYS)), None);
        assert_eq!(before_nodes, addresses(&before));

        // What the batch created is exactly what the new trie does not share
        // with the old one: no node was made and thrown away, …
        let created: Vec<Seen> = all_nodes(&after)
            .into_iter()
            .filter(|n| !before_nodes.contains(&n.address))
            .collect();
        assert_eq!(allocated, created.len());
        // … each one was hashed once (all of them: 70-byte values), …
        assert!(created.iter().all(|n| n.by_hash));
        assert_eq!(hashed, created.len());
        // … and each lies on the path of one of the batch's keys, or is the
        // leaf such a key split, hung again one branch further down.
        let mut on_paths = std::collections::HashSet::new();
        for (key, _) in &updates {
            visited(&after, key, &mut on_paths);
        }
        let mut rehung = 0;
        for node in &created {
            if !on_paths.contains(&node.address) {
                assert!(!node.is_branch && on_paths.contains(&node.parent));
                assert!(!before_nodes.contains(&node.parent));
                rehung += 1;
            }
        }
        assert!(rehung <= 40, "{rehung} leaves re-hung for 40 new keys");
        assert_eq!(
            on_paths
                .iter()
                .filter(|a| !before_nodes.contains(a))
                .count(),
            created.len() - rehung
        );
        // About five nodes a key at this size, sharing the upper levels.
        assert!(created.len() < updates.len() * 5, "{}", created.len());

        assert_commitments_hold(&after);
        let mut reference = before.clone();
        one_by_one(&mut reference, &updates);
        assert_eq!(after, reference);
    }

    #[test]
    fn a_block_sized_batch_fills_the_wide_kernel() {
        use bp_crypto::keccak::permutation_count;
        // Which kernel the batch hash runs on here: eight one-block inputs
        // are one call of the ×8 permutation, or eight of the scalar one.
        let probe: Vec<[u8; 8]> = (0..8u64).map(u64::to_be_bytes).collect();
        let calls = permutation_count();
        keccak256_batch(probe.iter().map(|input| &input[..]));
        let wide = permutation_count() - calls == 1;

        // A block's worth of account bodies rewritten in a 1 000-account
        // trie: 192 leaves, the branches over them, the root.
        let body = |i: u64, salt: u8| (hashed_key(i), Some(vec![salt; 70]));
        let mut trie = Trie::new();
        trie.apply_batch((0..1_000).map(|i| body(i, 0)).collect());
        let batch = (0..192).map(|j| body(j * 5, 1)).collect();
        let hashed = counters::read(&counters::HASHED);
        let calls = permutation_count();
        trie.apply_batch(batch);
        let hashed = counters::read(&counters::HASHED) - hashed;
        let calls = permutation_count() - calls;
        assert_commitments_hold(&trie);
        // 376 nodes of one to four rate blocks each, 512 blocks in all: a
        // call a block on the scalar path. Level order puts them through
        // the wide kernel in six levels (192, 134, 32, 15, 2 and 1 nodes),
        // each ending on a call that is not full, the root alone on the
        // scalar path: a seventh of the calls, where an eighth is the floor.
        assert_eq!(hashed, 376);
        assert_eq!(calls, if wide { 74 } else { 512 });
    }
}
