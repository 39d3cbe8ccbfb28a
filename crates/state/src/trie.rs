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
//! `Trie::clone` is O(1) and an insert/remove path-copies only the nodes on
//! the touched path while every untouched subtree stays shared with prior
//! clones. Each shared node memoizes its RLP encoding and keccak hash, so
//! recomputing the root after k mutations re-hashes O(k · depth) nodes, not
//! the whole trie. This is what makes the world state's incremental
//! commitment O(dirty keys) per block instead of O(total state).
//!
//! The trie also produces Merkle proofs ([`Trie::prove`] /
//! [`verify_proof`]), used in tests to cross-check the commitment logic.
//!
//! For persistence the trie can be decomposed into its *hashed nodes*
//! ([`Trie::commit_nodes`]) — the `(keccak(encoding), encoding)` pairs a node
//! database stores — and reconstructed from a root hash by resolving child
//! references through a [`NodeResolver`] ([`Trie::from_root`]). Nodes whose
//! encoding is shorter than 32 bytes are inlined in their parent (the MPT
//! inlining rule) and never hit the database.

use std::sync::{Arc, OnceLock};

use bp_crypto::keccak256;
use bp_crypto::rlp::{self, Item, RlpStream};
use bp_types::H256;

use crate::nibbles::Nibbles;

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

#[derive(Clone, Debug, PartialEq)]
enum Node {
    Empty,
    Leaf {
        path: Nibbles,
        value: Vec<u8>,
    },
    Extension {
        path: Nibbles,
        child: NodeRef,
    },
    Branch {
        children: Box<[NodeRef; 16]>,
        value: Option<Vec<u8>>,
    },
}

impl Node {
    fn empty_children() -> Box<[NodeRef; 16]> {
        Box::new(std::array::from_fn(|_| NodeRef::empty()))
    }
}

/// Memoized commitment of one node: its RLP encoding (with children already
/// reduced to hash references or inlined bytes) and, for encodings of 32
/// bytes or more, the keccak hash its parent refers to it by.
#[derive(Clone, Debug)]
struct EncCache {
    encoding: Arc<Vec<u8>>,
    /// `Some` iff `encoding.len() >= 32` (the node is hashed, not inlined).
    hash: Option<H256>,
}

/// A shared, immutable handle to a node. Cloning bumps a refcount; mutation
/// goes through [`NodeRef::take`], which copies the node only when it is
/// shared (path copying) and always discards the stale encoding cache.
#[derive(Clone, Debug)]
struct NodeRef(Arc<NodeInner>);

#[derive(Debug)]
struct NodeInner {
    node: Node,
    enc: OnceLock<EncCache>,
}

impl PartialEq for NodeRef {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.node() == other.node()
    }
}

impl NodeRef {
    fn new(node: Node) -> Self {
        NodeRef(Arc::new(NodeInner {
            node,
            enc: OnceLock::new(),
        }))
    }

    /// The shared empty node (one allocation program-wide).
    fn empty() -> Self {
        static EMPTY: OnceLock<NodeRef> = OnceLock::new();
        EMPTY.get_or_init(|| NodeRef::new(Node::Empty)).clone()
    }

    fn node(&self) -> &Node {
        &self.0.node
    }

    fn is_empty_node(&self) -> bool {
        matches!(self.0.node, Node::Empty)
    }

    /// Takes the node out for mutation: moves when this is the only
    /// reference, shallow-copies (children stay shared) otherwise. Either
    /// way the encoding cache is dropped — the caller is about to change
    /// the node, so the memoized commitment would be stale.
    fn take(self) -> Node {
        match Arc::try_unwrap(self.0) {
            Ok(inner) => inner.node,
            Err(shared) => shared.node.clone(),
        }
    }

    /// The memoized encoding + hash, computed on first use.
    fn enc(&self) -> &EncCache {
        self.0.enc.get_or_init(|| {
            let encoding = encode_node(&self.0.node);
            let hash = if encoding.len() >= 32 {
                Some(keccak256(&encoding))
            } else {
                None
            };
            EncCache {
                encoding: Arc::new(encoding),
                hash,
            }
        })
    }
}

/// An in-memory Merkle Patricia Trie over byte keys and byte values.
///
/// Cloning is O(1): both tries share all nodes until one of them mutates
/// (copy-on-write along the mutated path only).
#[derive(Clone, Debug, PartialEq)]
pub struct Trie {
    root: NodeRef,
}

impl Default for Trie {
    fn default() -> Self {
        Self::new()
    }
}

impl Trie {
    /// An empty trie.
    pub fn new() -> Self {
        Trie {
            root: NodeRef::empty(),
        }
    }

    /// Inserts `value` at `key`. Empty values are equivalent to deletion, as
    /// in Ethereum.
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) {
        if value.is_empty() {
            self.remove(key);
            return;
        }
        let path = Nibbles::from_bytes(key);
        let root = std::mem::replace(&mut self.root, NodeRef::empty()).take();
        self.root = NodeRef::new(insert_at(root, path, value));
    }

    /// Returns the value at `key`, if present.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let path = Nibbles::from_bytes(key);
        get_at(self.root.node(), &path, 0)
    }

    /// Removes `key`, returning whether it was present.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let path = Nibbles::from_bytes(key);
        let root = std::mem::replace(&mut self.root, NodeRef::empty()).take();
        let (new_root, removed) = remove_at(root, &path, 0);
        self.root = NodeRef::new(new_root);
        removed
    }

    /// True iff the trie holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_empty_node()
    }

    /// The Merkle root of the current contents. Memoized: repeated calls
    /// without intervening mutation are O(1), and after k mutations only the
    /// touched paths are re-encoded and re-hashed.
    pub fn root_hash(&self) -> H256 {
        if self.root.is_empty_node() {
            return empty_root();
        }
        let enc = self.root.enc();
        enc.hash.unwrap_or_else(|| keccak256(&enc.encoding))
    }

    /// Collects all (key, value) pairs in lexicographic key order. Keys are
    /// returned as nibble paths packed back into bytes; callers that inserted
    /// even-length byte keys get those bytes back exactly.
    pub fn iter(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        walk(self.root.node(), &mut Vec::new(), &mut out);
        out
    }

    /// Merkle proof for `key`: the RLP encodings of the nodes on the lookup
    /// path, root first. Verifiable with [`verify_proof`].
    pub fn prove(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let path = Nibbles::from_bytes(key);
        let mut proof = Vec::new();
        prove_at(&self.root, &path, 0, &mut proof);
        proof
    }

    /// Decomposes the trie into its root hash and every *hashed* node —
    /// `(keccak(encoding), encoding)` for the root and for each node whose
    /// encoding is at least 32 bytes. Shorter nodes are inlined into their
    /// parent's encoding and carry no identity of their own.
    ///
    /// A node referenced from several places (identical subtrees) is emitted
    /// once **per reference**, so a reference-counting store that increments
    /// on commit and decrements along a traversal stays balanced.
    ///
    /// Encodings and hashes come from the per-node memo, so repeated commits
    /// of a mostly-unchanged trie pay hashing only for the changed paths.
    pub fn commit_nodes(&self) -> (H256, Vec<(H256, Vec<u8>)>) {
        if self.root.is_empty_node() {
            return (empty_root(), Vec::new());
        }
        let mut out = Vec::new();
        collect_hashed_children(&self.root, &mut out);
        let enc = self.root.enc();
        let root = enc.hash.unwrap_or_else(|| keccak256(&enc.encoding));
        out.push((root, (*enc.encoding).clone()));
        (root, out)
    }

    /// Applies a batch of inserts (`Some(value)`) and removals (`None`) and
    /// hashes the touched subtrees on up to `threads` scoped workers.
    ///
    /// The trie's radix structure makes the sharding exact: updates are
    /// partitioned by their first nibble, and when the root is a branch each
    /// of its 16 subtrees absorbs its shard independently — no two shards
    /// touch the same node, so each worker path-copies and re-encodes its
    /// subtree in isolation and the single-threaded merge step only has to
    /// re-encode the root branch from 16 memoized child commitments.
    ///
    /// The result is **identical** to applying the updates one by one:
    /// MPT structure is a pure function of the key set, so the root hash,
    /// the memoized node set ([`Trie::commit_nodes`]) and every future
    /// incremental commit are byte-for-byte the same as the serial path.
    /// Keys must be distinct; update order within the batch is immaterial.
    ///
    /// With `threads < 2`, a small batch, or a non-branch root that a seed
    /// pass cannot split (keys sharing a first nibble), this degrades to the
    /// serial loop.
    pub fn apply_batch(&mut self, mut updates: Vec<(Vec<u8>, Option<Vec<u8>>)>, threads: usize) {
        /// Below this many updates the fan-out overhead outweighs the
        /// subtree hashing it would parallelize.
        const PARALLEL_BATCH_THRESHOLD: usize = 33;
        if threads < 2 || updates.len() < PARALLEL_BATCH_THRESHOLD {
            self.apply_serial(updates);
            return;
        }
        if !matches!(self.root.node(), Node::Branch { .. }) {
            // Bootstrap: a fresh (or single-path) trie has no branch to
            // shard on. Seed it with a prefix of the batch — with hashed
            // keys a handful of inserts split the root — then shard the
            // rest. Removals can't create a branch, so seed with inserts.
            let seed = updates.len().min(32);
            let rest = updates.split_off(seed);
            self.apply_serial(updates);
            updates = rest;
            if updates.is_empty() || !matches!(self.root.node(), Node::Branch { .. }) {
                self.apply_serial(updates);
                return;
            }
        }
        let Node::Branch {
            mut children,
            mut value,
        } = std::mem::replace(&mut self.root, NodeRef::empty()).take()
        else {
            unreachable!("checked branch root above");
        };
        let mut shards: [Vec<(Nibbles, Option<Vec<u8>>)>; 16] = std::array::from_fn(|_| Vec::new());
        for (key, update) in updates {
            let path = Nibbles::from_bytes(&key);
            if path.is_empty() {
                // A root-valued key lives on the branch itself, not in any
                // subtree (unreachable for hashed keys, handled for parity
                // with the serial path).
                value = update.filter(|v| !v.is_empty());
            } else {
                shards[path.at(0) as usize].push((path, update));
            }
        }
        // Round-robin the 16 subtrees over the workers; each worker applies
        // its shards and forces the subtree commitment (`enc`) so the
        // expensive hashing happens inside the parallel region.
        let workers = threads.min(16);
        type SubtreeJob = (usize, NodeRef, Vec<(Nibbles, Option<Vec<u8>>)>);
        let mut jobs: Vec<Vec<SubtreeJob>> = (0..workers).map(|_| Vec::new()).collect();
        let mut next = 0;
        for (idx, shard) in shards.into_iter().enumerate() {
            if shard.is_empty() {
                continue;
            }
            let child = std::mem::replace(&mut children[idx], NodeRef::empty());
            jobs[next % workers].push((idx, child, shard));
            next += 1;
        }
        let done: Vec<Vec<(usize, NodeRef)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .filter(|job| !job.is_empty())
                .map(|job| {
                    scope.spawn(move || {
                        job.into_iter()
                            .map(|(idx, child, shard)| {
                                let mut node = child.take();
                                for (path, update) in shard {
                                    node = match update {
                                        // Empty values delete, as in
                                        // `Trie::insert`.
                                        Some(v) if !v.is_empty() => {
                                            insert_at(node, path.slice_from(1), v)
                                        }
                                        _ => remove_at(node, &path, 1).0,
                                    };
                                }
                                let subtree = NodeRef::new(node);
                                if !subtree.is_empty_node() {
                                    subtree.enc();
                                }
                                (idx, subtree)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trie commit worker panicked"))
                .collect()
        });
        for (idx, subtree) in done.into_iter().flatten() {
            children[idx] = subtree;
        }
        self.root = NodeRef::new(normalize_branch(children, value));
    }

    /// The serial equivalent of [`Trie::apply_batch`].
    fn apply_serial(&mut self, updates: Vec<(Vec<u8>, Option<Vec<u8>>)>) {
        for (key, update) in updates {
            match update {
                Some(value) => self.insert(&key, value),
                None => {
                    self.remove(&key);
                }
            }
        }
    }

    /// Reconstructs a trie from its root hash, resolving hashed children
    /// through `resolver`. The inverse of [`Trie::commit_nodes`]: a round
    /// trip reproduces the identical contents and root hash.
    pub fn from_root(root: H256, resolver: &dyn NodeResolver) -> Result<Trie, TrieLoadError> {
        if root == empty_root() {
            return Ok(Trie::new());
        }
        let bytes = resolver
            .resolve_node(&root)
            .ok_or(TrieLoadError::MissingNode(root))?;
        if keccak256(&bytes) != root {
            return Err(TrieLoadError::HashMismatch(root));
        }
        let item = rlp::decode(&bytes).map_err(|_| TrieLoadError::BadNode(root))?;
        let node = node_from_item(&item, resolver)?;
        Ok(Trie {
            root: NodeRef::new(node),
        })
    }
}

// ---------------------------------------------------------------------------
// Persistence: node decomposition and resolver-based loading
// ---------------------------------------------------------------------------

/// Resolves trie nodes by hash — the bridge between in-memory tries and a
/// persistent node database.
pub trait NodeResolver {
    /// The encoding of the node hashing to `hash`, if stored.
    fn resolve_node(&self, hash: &H256) -> Option<Vec<u8>>;
}

impl NodeResolver for std::collections::HashMap<H256, Vec<u8>> {
    fn resolve_node(&self, hash: &H256) -> Option<Vec<u8>> {
        self.get(hash).cloned()
    }
}

/// Failures reconstructing a trie from a [`NodeResolver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrieLoadError {
    /// A referenced node is absent from the resolver.
    MissingNode(H256),
    /// A stored node failed to decode as a trie node.
    BadNode(H256),
    /// A stored node's bytes do not hash to the requested hash.
    HashMismatch(H256),
}

impl std::fmt::Display for TrieLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrieLoadError::MissingNode(h) => write!(f, "missing trie node {h:?}"),
            TrieLoadError::BadNode(h) => write!(f, "undecodable trie node {h:?}"),
            TrieLoadError::HashMismatch(h) => write!(f, "trie node bytes do not hash to {h:?}"),
        }
    }
}

impl std::error::Error for TrieLoadError {}

/// The storage-relevant structure of one encoded trie node: which children it
/// references by hash, and which values it carries (its own and those of any
/// inlined descendants). Used by node stores to traverse persisted tries
/// without materializing them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSummary {
    /// Hash-referenced children, in traversal order.
    pub children: Vec<H256>,
    /// Leaf and branch values found in this node and its inlined descendants.
    pub values: Vec<Vec<u8>>,
}

/// Summarizes one encoded node for traversal: hash-referenced children plus
/// every value embedded in the encoding (including values of inlined
/// descendants — an inlined node is under 32 bytes, so it can never itself
/// hold a 33-byte hash reference, but it can hold a short value).
pub fn summarize_node(bytes: &[u8]) -> Result<NodeSummary, TrieLoadError> {
    let bad = || TrieLoadError::BadNode(keccak256(bytes));
    let item = rlp::decode(bytes).map_err(|_| bad())?;
    let mut summary = NodeSummary::default();
    summarize_item(&item, &mut summary).map_err(|_| bad())?;
    Ok(summary)
}

/// Recursion for [`summarize_node`]; `Err(())` marks a malformed node.
fn summarize_item(item: &Item, out: &mut NodeSummary) -> Result<(), ()> {
    let list = item.as_list().map_err(|_| ())?;
    match list.len() {
        2 => {
            let hp = list[0].as_bytes().map_err(|_| ())?;
            let (_, is_leaf) = Nibbles::from_hex_prefix(hp).ok_or(())?;
            if is_leaf {
                out.values
                    .push(list[1].as_bytes().map_err(|_| ())?.to_vec());
            } else {
                summarize_child(&list[1], out)?;
            }
        }
        17 => {
            for child in &list[..16] {
                match child {
                    Item::Bytes(b) if b.is_empty() => {}
                    other => summarize_child(other, out)?,
                }
            }
            let value = list[16].as_bytes().map_err(|_| ())?;
            if !value.is_empty() {
                out.values.push(value.to_vec());
            }
        }
        _ => return Err(()),
    }
    Ok(())
}

fn summarize_child(item: &Item, out: &mut NodeSummary) -> Result<(), ()> {
    match item {
        Item::Bytes(b) if b.len() == 32 => {
            let arr: [u8; 32] = b[..].try_into().expect("checked length");
            out.children.push(H256(arr));
            Ok(())
        }
        inline @ Item::List(_) => summarize_item(inline, out),
        _ => Err(()),
    }
}

/// Post-order collection of every hashed descendant reachable from `node`
/// (the node itself is NOT emitted — the caller handles it, because the root
/// is emitted unconditionally while inner nodes only when hashed).
///
/// An inlined child (encoding < 32 bytes) cannot itself reference a hashed
/// node — a 33-byte hash reference would not fit — so recursion only follows
/// hash-referenced children.
fn collect_hashed_children(node: &NodeRef, out: &mut Vec<(H256, Vec<u8>)>) {
    let push_child = |child: &NodeRef, out: &mut Vec<(H256, Vec<u8>)>| {
        let enc = child.enc();
        if let Some(h) = enc.hash {
            collect_hashed_children(child, out);
            out.push((h, (*enc.encoding).clone()));
        }
    };
    match node.node() {
        Node::Empty | Node::Leaf { .. } => {}
        Node::Extension { child, .. } => push_child(child, out),
        Node::Branch { children, .. } => {
            for c in children.iter() {
                if !c.is_empty_node() {
                    push_child(c, out);
                }
            }
        }
    }
}

/// Rebuilds a [`Node`] from its decoded RLP item, resolving hashed children.
fn node_from_item(item: &Item, resolver: &dyn NodeResolver) -> Result<Node, TrieLoadError> {
    let bad = || TrieLoadError::BadNode(keccak256(&rlp::encode_item(item)));
    let list = item.as_list().map_err(|_| bad())?;
    match list.len() {
        2 => {
            let hp = list[0].as_bytes().map_err(|_| bad())?;
            let (path, is_leaf) = Nibbles::from_hex_prefix(hp).ok_or_else(bad)?;
            if is_leaf {
                let value = list[1].as_bytes().map_err(|_| bad())?.to_vec();
                Ok(Node::Leaf { path, value })
            } else {
                let child = child_from_item(&list[1], resolver)?;
                Ok(Node::Extension {
                    path,
                    child: NodeRef::new(child),
                })
            }
        }
        17 => {
            let mut children = Node::empty_children();
            for (i, slot) in list[..16].iter().enumerate() {
                children[i] = match slot {
                    Item::Bytes(b) if b.is_empty() => NodeRef::empty(),
                    other => NodeRef::new(child_from_item(other, resolver)?),
                };
            }
            let value_bytes = list[16].as_bytes().map_err(|_| bad())?;
            let value = if value_bytes.is_empty() {
                None
            } else {
                Some(value_bytes.to_vec())
            };
            Ok(Node::Branch { children, value })
        }
        _ => Err(bad()),
    }
}

/// Resolves one child reference: a 32-byte string is a hash looked up through
/// the resolver; a nested list is an inlined node decoded in place.
fn child_from_item(item: &Item, resolver: &dyn NodeResolver) -> Result<Node, TrieLoadError> {
    match item {
        Item::Bytes(b) if b.len() == 32 => {
            let arr: [u8; 32] = b[..].try_into().expect("checked length");
            let hash = H256(arr);
            let bytes = resolver
                .resolve_node(&hash)
                .ok_or(TrieLoadError::MissingNode(hash))?;
            if keccak256(&bytes) != hash {
                return Err(TrieLoadError::HashMismatch(hash));
            }
            let child_item = rlp::decode(&bytes).map_err(|_| TrieLoadError::BadNode(hash))?;
            node_from_item(&child_item, resolver)
        }
        inline @ Item::List(_) => node_from_item(inline, resolver),
        _ => Err(TrieLoadError::BadNode(H256::ZERO)),
    }
}

// ---------------------------------------------------------------------------
// Insert / get / remove
// ---------------------------------------------------------------------------

fn insert_at(node: Node, path: Nibbles, value: Vec<u8>) -> Node {
    match node {
        Node::Empty => Node::Leaf { path, value },
        Node::Leaf {
            path: lpath,
            value: lvalue,
        } => {
            let common = lpath.common_prefix_len(&path);
            if common == lpath.len() && common == path.len() {
                return Node::Leaf { path: lpath, value };
            }
            // Split into a branch (optionally under an extension).
            let mut children = Node::empty_children();
            let mut branch_value = None;
            if common == lpath.len() {
                branch_value = Some(lvalue);
            } else {
                let idx = lpath.at(common) as usize;
                children[idx] = NodeRef::new(Node::Leaf {
                    path: lpath.slice_from(common + 1),
                    value: lvalue,
                });
            }
            if common == path.len() {
                let branch = Node::Branch {
                    children,
                    value: Some(value),
                };
                return wrap_extension(lpath, common, branch);
            }
            let idx = path.at(common) as usize;
            children[idx] = NodeRef::new(Node::Leaf {
                path: path.slice_from(common + 1),
                value,
            });
            let branch = Node::Branch {
                children,
                value: branch_value,
            };
            wrap_extension(path, common, branch)
        }
        Node::Extension { path: epath, child } => {
            let common = epath.common_prefix_len(&path);
            if common == epath.len() {
                let new_child = insert_at(child.take(), path.slice_from(common), value);
                return Node::Extension {
                    path: epath,
                    child: NodeRef::new(new_child),
                };
            }
            // The new key diverges inside this extension: split it.
            let mut children = Node::empty_children();
            let eidx = epath.at(common) as usize;
            let rest = epath.slice_from(common + 1);
            children[eidx] = if rest.is_empty() {
                child
            } else {
                NodeRef::new(Node::Extension { path: rest, child })
            };
            let branch_value;
            if common == path.len() {
                branch_value = Some(value);
            } else {
                branch_value = None;
                let idx = path.at(common) as usize;
                children[idx] = NodeRef::new(Node::Leaf {
                    path: path.slice_from(common + 1),
                    value,
                });
            }
            let branch = Node::Branch {
                children,
                value: branch_value,
            };
            wrap_extension(epath, common, branch)
        }
        Node::Branch {
            mut children,
            value: bvalue,
        } => {
            if path.is_empty() {
                return Node::Branch {
                    children,
                    value: Some(value),
                };
            }
            let idx = path.at(0) as usize;
            let child = std::mem::replace(&mut children[idx], NodeRef::empty());
            children[idx] = NodeRef::new(insert_at(child.take(), path.slice_from(1), value));
            Node::Branch {
                children,
                value: bvalue,
            }
        }
    }
}

/// Wraps `branch` in an extension holding the first `common` nibbles of
/// `full_path`, or returns it bare when the shared prefix is empty.
fn wrap_extension(full_path: Nibbles, common: usize, branch: Node) -> Node {
    if common == 0 {
        branch
    } else {
        Node::Extension {
            path: Nibbles(full_path.0[..common].to_vec()),
            child: NodeRef::new(branch),
        }
    }
}

fn get_at<'a>(node: &'a Node, path: &Nibbles, depth: usize) -> Option<&'a [u8]> {
    match node {
        Node::Empty => None,
        Node::Leaf { path: lpath, value } => {
            if &path.slice_from(depth) == lpath {
                Some(value)
            } else {
                None
            }
        }
        Node::Extension { path: epath, child } => {
            let rest = path.slice_from(depth);
            if rest.len() >= epath.len() && rest.common_prefix_len(epath) == epath.len() {
                get_at(child.node(), path, depth + epath.len())
            } else {
                None
            }
        }
        Node::Branch { children, value } => {
            if depth == path.len() {
                value.as_deref()
            } else {
                get_at(children[path.at(depth) as usize].node(), path, depth + 1)
            }
        }
    }
}

fn remove_at(node: Node, path: &Nibbles, depth: usize) -> (Node, bool) {
    match node {
        Node::Empty => (Node::Empty, false),
        Node::Leaf { path: lpath, value } => {
            if path.slice_from(depth) == lpath {
                (Node::Empty, true)
            } else {
                (Node::Leaf { path: lpath, value }, false)
            }
        }
        Node::Extension { path: epath, child } => {
            let rest = path.slice_from(depth);
            if rest.len() >= epath.len() && rest.common_prefix_len(&epath) == epath.len() {
                let (new_child, removed) = remove_at(child.take(), path, depth + epath.len());
                if !removed {
                    return (
                        Node::Extension {
                            path: epath,
                            child: NodeRef::new(new_child),
                        },
                        false,
                    );
                }
                (collapse_extension(epath, new_child), true)
            } else {
                (Node::Extension { path: epath, child }, false)
            }
        }
        Node::Branch {
            mut children,
            mut value,
        } => {
            let removed = if depth == path.len() {
                let had = value.is_some();
                value = None;
                had
            } else {
                let idx = path.at(depth) as usize;
                let child = std::mem::replace(&mut children[idx], NodeRef::empty());
                let (new_child, removed) = remove_at(child.take(), path, depth + 1);
                children[idx] = NodeRef::new(new_child);
                removed
            };
            if !removed {
                return (Node::Branch { children, value }, false);
            }
            (normalize_branch(children, value), true)
        }
    }
}

/// Re-attaches an extension prefix after its child changed shape.
fn collapse_extension(epath: Nibbles, child: Node) -> Node {
    match child {
        Node::Empty => Node::Empty,
        Node::Leaf { path, value } => Node::Leaf {
            path: epath.concat(&path),
            value,
        },
        Node::Extension { path, child } => Node::Extension {
            path: epath.concat(&path),
            child,
        },
        branch @ Node::Branch { .. } => Node::Extension {
            path: epath,
            child: NodeRef::new(branch),
        },
    }
}

/// Collapses a branch that may have dropped to ≤1 occupant.
fn normalize_branch(mut children: Box<[NodeRef; 16]>, value: Option<Vec<u8>>) -> Node {
    let occupied: Vec<usize> = (0..16).filter(|&i| !children[i].is_empty_node()).collect();
    match (occupied.len(), &value) {
        (0, None) => Node::Empty,
        (0, Some(_)) => Node::Leaf {
            path: Nibbles::default(),
            value: value.expect("checked above"),
        },
        (1, None) => {
            let idx = occupied[0];
            let child = std::mem::replace(&mut children[idx], NodeRef::empty());
            collapse_extension(Nibbles(vec![idx as u8]), child.take())
        }
        _ => Node::Branch { children, value },
    }
}

fn walk(node: &Node, prefix: &mut Vec<u8>, out: &mut Vec<(Vec<u8>, Vec<u8>)>) {
    match node {
        Node::Empty => {}
        Node::Leaf { path, value } => {
            let mut full = prefix.clone();
            full.extend_from_slice(&path.0);
            out.push((pack_nibbles(&full), value.clone()));
        }
        Node::Extension { path, child } => {
            let len = prefix.len();
            prefix.extend_from_slice(&path.0);
            walk(child.node(), prefix, out);
            prefix.truncate(len);
        }
        Node::Branch { children, value } => {
            if let Some(v) = value {
                out.push((pack_nibbles(prefix), v.clone()));
            }
            for (i, c) in children.iter().enumerate() {
                prefix.push(i as u8);
                walk(c.node(), prefix, out);
                prefix.pop();
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

// ---------------------------------------------------------------------------
// Encoding and proofs
// ---------------------------------------------------------------------------

/// RLP encoding of a node. Child references come from each child's memoized
/// [`EncCache`], so a re-encode after a mutation touches only the dirty path.
fn encode_node(node: &Node) -> Vec<u8> {
    match node {
        Node::Empty => vec![0x80],
        Node::Leaf { path, value } => {
            let mut s = RlpStream::new();
            s.begin_list(2);
            s.append_bytes(&path.hex_prefix(true));
            s.append_bytes(value);
            s.out()
        }
        Node::Extension { path, child } => {
            let mut s = RlpStream::new();
            s.begin_list(2);
            s.append_bytes(&path.hex_prefix(false));
            append_child_ref(&mut s, child);
            s.out()
        }
        Node::Branch { children, value } => {
            let mut s = RlpStream::new();
            s.begin_list(17);
            for c in children.iter() {
                if c.is_empty_node() {
                    s.append_bytes(&[]);
                } else {
                    append_child_ref(&mut s, c);
                }
            }
            match value {
                Some(v) => s.append_bytes(v),
                None => s.append_bytes(&[]),
            }
            s.out()
        }
    }
}

/// Appends a child reference: the node itself when its encoding is shorter
/// than 32 bytes, otherwise its keccak hash (the MPT inlining rule).
fn append_child_ref(s: &mut RlpStream, child: &NodeRef) {
    let enc = child.enc();
    match enc.hash {
        Some(h) => s.append_h256(&h),
        None => s.append_raw(&enc.encoding),
    }
}

fn prove_at(node: &NodeRef, path: &Nibbles, depth: usize, proof: &mut Vec<Vec<u8>>) {
    match node.node() {
        Node::Empty => {}
        Node::Leaf { .. } => proof.push((*node.enc().encoding).clone()),
        Node::Extension { path: epath, child } => {
            proof.push((*node.enc().encoding).clone());
            let rest = path.slice_from(depth);
            if rest.len() >= epath.len() && rest.common_prefix_len(epath) == epath.len() {
                // Only recurse into children that are hashed separately;
                // inlined children are already inside this node's encoding.
                if child.enc().hash.is_some() {
                    prove_at(child, path, depth + epath.len(), proof);
                }
            }
        }
        Node::Branch { children, .. } => {
            proof.push((*node.enc().encoding).clone());
            if depth < path.len() {
                let child = &children[path.at(depth) as usize];
                if !child.is_empty_node() && child.enc().hash.is_some() {
                    prove_at(child, path, depth + 1, proof);
                }
            }
        }
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
    let path = Nibbles::from_bytes(key);
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
        let node_bytes: Vec<u8> = match &expected {
            Expected::Hash(h) => {
                let bytes = proof.get(idx).ok_or(ProofError::Truncated)?.clone();
                idx += 1;
                if keccak256(&bytes) != *h {
                    return Err(ProofError::HashMismatch);
                }
                bytes
            }
            Expected::Inline(raw) => raw.clone(),
        };
        let item = rlp::decode(&node_bytes).map_err(|_| ProofError::BadNode)?;
        let list = item.as_list().map_err(|_| ProofError::BadNode)?;
        match list.len() {
            2 => {
                let hp = list[0].as_bytes().map_err(|_| ProofError::BadNode)?;
                let (npath, is_leaf) = Nibbles::from_hex_prefix(hp).ok_or(ProofError::BadNode)?;
                let rest = path.slice_from(depth);
                if is_leaf {
                    return if rest == npath {
                        Ok(Some(
                            list[1]
                                .as_bytes()
                                .map_err(|_| ProofError::BadNode)?
                                .to_vec(),
                        ))
                    } else {
                        Ok(None)
                    };
                }
                if rest.len() < npath.len() || rest.common_prefix_len(&npath) != npath.len() {
                    return Ok(None);
                }
                depth += npath.len();
                expected = child_expected(&list[1])?;
            }
            17 => {
                if depth == path.len() {
                    let v = list[16].as_bytes().map_err(|_| ProofError::BadNode)?;
                    return Ok(if v.is_empty() { None } else { Some(v.to_vec()) });
                }
                let branch = &list[path.at(depth) as usize];
                depth += 1;
                match branch {
                    Item::Bytes(b) if b.is_empty() => return Ok(None),
                    _ => expected = child_expected(branch)?,
                }
            }
            _ => return Err(ProofError::BadNode),
        }
    }
}

enum Expected {
    Hash(H256),
    Inline(Vec<u8>),
}

fn child_expected(item: &Item) -> Result<Expected, ProofError> {
    match item {
        Item::Bytes(b) if b.len() == 32 => {
            let arr: [u8; 32] = b[..].try_into().expect("checked length");
            Ok(Expected::Hash(H256(arr)))
        }
        // An inlined node decodes as a list inside the parent.
        inline @ Item::List(_) => Ok(Expected::Inline(rlp::encode_item(inline))),
        _ => Err(ProofError::BadNode),
    }
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
        let loaded = Trie::from_root(root, &std::collections::HashMap::new()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn commit_nodes_roundtrips_through_resolver() {
        let mut t = Trie::new();
        for i in 0..200u32 {
            t.insert(&i.to_be_bytes(), format!("value-{i}").into_bytes());
        }
        let (root, nodes) = t.commit_nodes();
        assert_eq!(root, t.root_hash());
        // Every emitted node hashes to its key and is >= 32 bytes (hashed,
        // not inlined).
        let mut db = std::collections::HashMap::new();
        for (h, enc) in &nodes {
            assert_eq!(keccak256(enc), *h);
            assert!(enc.len() >= 32);
            db.insert(*h, enc.clone());
        }
        let loaded = Trie::from_root(root, &db).unwrap();
        assert_eq!(loaded.root_hash(), root);
        assert_eq!(loaded.iter(), t.iter());
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

    #[test]
    fn apply_batch_fresh_build_matches_serial_across_thread_counts() {
        let updates: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..300u64)
            .map(|i| (hashed_key(i), Some(format!("value-{i}").into_bytes())))
            .collect();
        let mut reference = Trie::new();
        reference.apply_serial(updates.clone());
        let (ref_root, mut ref_nodes) = reference.commit_nodes();
        ref_nodes.sort();
        for threads in [1, 2, 3, 5, 8, 16] {
            let mut t = Trie::new();
            t.apply_batch(updates.clone(), threads);
            let (root, mut nodes) = t.commit_nodes();
            assert_eq!(root, ref_root, "root diverged at {threads} threads");
            nodes.sort();
            assert_eq!(nodes, ref_nodes, "node set diverged at {threads} threads");
        }
    }

    #[test]
    fn apply_batch_incremental_mix_matches_serial() {
        // Warm trie + a batch mixing overwrites, inserts, removals of
        // present and absent keys, and empty-value inserts (deletes).
        let build = |threads: usize| {
            let mut t = Trie::new();
            t.apply_batch(
                (0..200u64)
                    .map(|i| (hashed_key(i), Some(vec![1, 2, 3])))
                    .collect(),
                threads,
            );
            let _ = t.commit_nodes(); // warm the memo
            let batch: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..300u64)
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
            t.apply_batch(batch, threads);
            t
        };
        let reference = build(1);
        let (ref_root, mut ref_nodes) = reference.commit_nodes();
        ref_nodes.sort();
        for threads in [2, 4, 16] {
            let t = build(threads);
            let (root, mut nodes) = t.commit_nodes();
            assert_eq!(root, ref_root, "root diverged at {threads} threads");
            nodes.sort();
            assert_eq!(nodes, ref_nodes, "node set diverged at {threads} threads");
            assert_eq!(t.iter(), reference.iter());
        }
    }

    #[test]
    fn apply_batch_below_threshold_and_drain_to_empty() {
        let updates: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            (0..10u64).map(|i| (hashed_key(i), Some(vec![9]))).collect();
        let mut t = Trie::new();
        t.apply_batch(updates.clone(), 8);
        let mut reference = Trie::new();
        reference.apply_serial(updates);
        assert_eq!(t.root_hash(), reference.root_hash());
        // Parallel removal of everything must land back on the empty root.
        let mut full = Trie::new();
        full.apply_batch(
            (0..100u64)
                .map(|i| (hashed_key(i), Some(vec![1])))
                .collect(),
            4,
        );
        full.apply_batch((0..100u64).map(|i| (hashed_key(i), None)).collect(), 4);
        assert!(full.is_empty());
        assert_eq!(full.root_hash(), empty_root());
    }

    #[test]
    fn from_root_reports_missing_node() {
        let mut t = Trie::new();
        for i in 0..50u32 {
            t.insert(&i.to_be_bytes(), format!("value-{i}").into_bytes());
        }
        let (root, nodes) = t.commit_nodes();
        let mut db: std::collections::HashMap<H256, Vec<u8>> = nodes.into_iter().collect();
        // Drop a non-root node; loading must fail with MissingNode.
        let victim = *db.keys().find(|h| **h != root).unwrap();
        db.remove(&victim);
        assert_eq!(
            Trie::from_root(root, &db),
            Err(TrieLoadError::MissingNode(victim))
        );
    }

    #[test]
    fn summarize_node_covers_all_children_and_values() {
        let mut t = Trie::new();
        for i in 0..200u32 {
            t.insert(&i.to_be_bytes(), format!("value-{i}").into_bytes());
        }
        let (root, nodes) = t.commit_nodes();
        let db: std::collections::HashMap<H256, Vec<u8>> = nodes.iter().cloned().collect();
        // BFS from the root using summaries; we must reach every stored node
        // exactly as often as commit_nodes emitted it, and collect every value.
        let mut counts: std::collections::HashMap<H256, usize> = std::collections::HashMap::new();
        let mut values = Vec::new();
        let mut queue = vec![root];
        while let Some(h) = queue.pop() {
            *counts.entry(h).or_insert(0) += 1;
            let summary = summarize_node(&db[&h]).unwrap();
            values.extend(summary.values);
            queue.extend(summary.children);
        }
        let mut emitted: std::collections::HashMap<H256, usize> = std::collections::HashMap::new();
        for (h, _) in &nodes {
            *emitted.entry(*h).or_insert(0) += 1;
        }
        assert_eq!(counts, emitted);
        values.sort();
        let mut expected: Vec<Vec<u8>> = t.iter().into_iter().map(|(_, v)| v).collect();
        expected.sort();
        assert_eq!(values, expected);
    }
}
