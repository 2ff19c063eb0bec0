//! Fine-grained row provenance: polynomials over source tuples.
//!
//! The engine stores polynomials in a **hash-consed arena** ([`ProvArena`]):
//! a flat, `u32`-indexed node store where identical subexpressions are
//! interned once, `Times`/`Plus` children live in one contiguous slice
//! buffer, and every per-row polynomial is just a [`ProvId`]. Because a
//! node's children are always created before the node itself, the arena is
//! topologically sorted and *any* semiring evaluation is a single forward
//! pass over the node table — no recursion, no per-row hash-set collection.
//!
//! `Times` combines tuples that *jointly* produced a row (joins); `Plus`
//! combines *alternative* derivations (unions/dedup). This is the semiring
//! lineage Datascope pushes importance through. The `nde-tests` crate
//! keeps the recursive-tree form of these polynomials and checks every
//! arena evaluation against it.

use crate::semiring::Semiring;
use nde_data::fxhash::{FxHashMap, FxHashSet};
use std::sync::OnceLock;

/// Identifies one tuple of one source table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Index of the source table (position in [`Lineage::sources`]).
    pub source: u32,
    /// Row index within that source table.
    pub row: u32,
}

impl TupleId {
    /// Create a tuple id.
    pub fn new(source: u32, row: u32) -> TupleId {
        TupleId { source, row }
    }

    /// Pack into a single `u64` variable id (for semiring evaluation).
    pub fn as_var(self) -> u64 {
        ((self.source as u64) << 32) | self.row as u64
    }

    /// Unpack from a packed variable id.
    pub fn from_var(v: u64) -> TupleId {
        TupleId {
            source: (v >> 32) as u32,
            row: (v & 0xffff_ffff) as u32,
        }
    }
}

/// Index of a node in a [`ProvArena`]. Four bytes per polynomial reference
/// instead of a boxed tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProvId(u32);

impl ProvId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arena node. `Times`/`Plus` reference a contiguous run of child ids in
/// the arena's shared `children` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProvNode {
    Var(TupleId),
    Times { start: u32, len: u32 },
    Plus { start: u32, len: u32 },
}

/// What kind of node a [`ProvId`] points at, with children resolved to ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvNodeRef<'a> {
    /// A single source tuple.
    Var(TupleId),
    /// Joint derivation over the child ids.
    Times(&'a [ProvId]),
    /// Alternative derivations over the child ids.
    Plus(&'a [ProvId]),
}

/// A hash-consed provenance arena.
///
/// Construction goes through [`ProvArena::var`], [`ProvArena::times`] and
/// [`ProvArena::plus`], which intern structurally identical nodes to the
/// same [`ProvId`]. Invariant: every child id is smaller than its parent's
/// id, so a forward pass over `0..len()` visits children before parents —
/// this is what makes [`ProvArena::eval_nodes`] and the bitset evaluators
/// single-pass.
#[derive(Debug, Clone, Default)]
pub struct ProvArena {
    nodes: Vec<ProvNode>,
    children: Vec<ProvId>,
    /// Interning: the newest node of each structural hash. Older nodes of
    /// the same hash follow through `chain`, so a lookup compares the
    /// candidate against each node of its hash without owning any key.
    intern: FxHashMap<u64, u32>,
    /// `chain[id]`: the next older node with node `id`'s hash, or
    /// [`NO_NODE`].
    chain: Vec<u32>,
}

/// End of an intern chain.
const NO_NODE: u32 = u32::MAX;

/// Two arenas are equal when they hold the same nodes in the same order
/// (the intern map is derived state).
impl PartialEq for ProvArena {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.children == other.children
    }
}

impl Eq for ProvArena {}

const VAR_TAG: u64 = 0x9e37_79b9_7f4a_7c15;
const TIMES_TAG: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PLUS_TAG: u64 = 0x1656_67b1_9e37_79f9;

fn mix(mut h: u64, v: u64) -> u64 {
    h ^= v;
    h = h.wrapping_mul(0x100_0000_01b3);
    h.rotate_left(23)
}

impl ProvArena {
    /// An empty arena.
    pub fn new() -> ProvArena {
        ProvArena::default()
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total child-slot count (size of the shared children buffer).
    pub fn children_len(&self) -> usize {
        self.children.len()
    }

    fn hash_var(t: TupleId) -> u64 {
        mix(VAR_TAG, t.as_var())
    }

    fn hash_compound(tag: u64, kids: &[ProvId]) -> u64 {
        let mut h = mix(tag, kids.len() as u64);
        for k in kids {
            h = mix(h, k.0 as u64);
        }
        h
    }

    fn kids_of(&self, start: u32, len: u32) -> &[ProvId] {
        &self.children[start as usize..(start + len) as usize]
    }

    /// Intern a variable node for tuple `t`.
    pub fn var(&mut self, t: TupleId) -> ProvId {
        let h = Self::hash_var(t);
        let node = ProvNode::Var(t);
        self.find(h, |arena, id| arena.nodes[id] == node)
            .unwrap_or_else(|| self.push(node, h))
    }

    /// Intern a product node of `a` and `b`, flattening nested products:
    /// the factor list is the concatenation of `a`'s factors and `b`'s
    /// factors, order preserved, no dedup, so counting-semiring evaluation
    /// counts every derivation.
    pub fn times(&mut self, a: ProvId, b: ProvId) -> ProvId {
        let mut kids: Vec<ProvId> = Vec::new();
        for id in [a, b] {
            match self.nodes[id.index()] {
                ProvNode::Times { start, len } => {
                    kids.extend_from_slice(self.kids_of(start, len));
                }
                _ => kids.push(id),
            }
        }
        self.intern_compound(TIMES_TAG, &kids)
    }

    /// Intern a sum node over `alts`. A single alternative is returned
    /// as-is (a one-armed `Plus` adds nothing); nested sums are *not*
    /// flattened, matching how the executor builds dedup provenance.
    pub fn plus(&mut self, alts: &[ProvId]) -> ProvId {
        debug_assert!(!alts.is_empty(), "plus of zero alternatives");
        if alts.len() == 1 {
            return alts[0];
        }
        self.intern_compound(PLUS_TAG, alts)
    }

    fn intern_compound(&mut self, tag: u64, kids: &[ProvId]) -> ProvId {
        let h = Self::hash_compound(tag, kids);
        let found = self.find(h, |arena, id| match arena.nodes[id] {
            ProvNode::Times { start, len } => tag == TIMES_TAG && arena.kids_of(start, len) == kids,
            ProvNode::Plus { start, len } => tag == PLUS_TAG && arena.kids_of(start, len) == kids,
            ProvNode::Var(_) => false,
        });
        if let Some(id) = found {
            return id;
        }
        let start = self.children.len() as u32;
        self.children.extend_from_slice(kids);
        let len = kids.len() as u32;
        let node = if tag == TIMES_TAG {
            ProvNode::Times { start, len }
        } else {
            ProvNode::Plus { start, len }
        };
        self.push(node, h)
    }

    /// The node of hash `h` that `same` accepts, walking the intern chain
    /// from the newest node of that hash.
    fn find(&self, h: u64, same: impl Fn(&ProvArena, usize) -> bool) -> Option<ProvId> {
        let mut id = *self.intern.get(&h)?;
        while id != NO_NODE {
            if same(self, id as usize) {
                return Some(ProvId(id));
            }
            id = self.chain[id as usize];
        }
        None
    }

    /// Append `node` (of structural hash `h`) as the newest node of its
    /// hash.
    fn push(&mut self, node: ProvNode, h: u64) -> ProvId {
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.chain
            .push(self.intern.insert(h, id).unwrap_or(NO_NODE));
        ProvId(id)
    }

    /// The structural hash node `id` was interned under.
    fn hash_of(&self, id: usize) -> u64 {
        match self.nodes[id] {
            ProvNode::Var(t) => Self::hash_var(t),
            ProvNode::Times { start, len } => {
                Self::hash_compound(TIMES_TAG, self.kids_of(start, len))
            }
            ProvNode::Plus { start, len } => {
                Self::hash_compound(PLUS_TAG, self.kids_of(start, len))
            }
        }
    }

    /// Drop every node from id `len` on, as if they had never been
    /// interned.
    pub(crate) fn truncate(&mut self, len: usize) {
        for id in (len..self.nodes.len()).rev() {
            let h = self.hash_of(id);
            match self.chain[id] {
                NO_NODE => self.intern.remove(&h),
                older => self.intern.insert(h, older),
            };
            if let ProvNode::Times { start, .. } | ProvNode::Plus { start, .. } = self.nodes[id] {
                self.children.truncate(start as usize);
            }
        }
        self.nodes.truncate(len);
        self.chain.truncate(len);
    }

    /// Remove source tuple `t` as a delete of its row removes it: drop
    /// every node whose polynomial contains `t`, renumber the later rows of
    /// `t`'s source down by one, and renumber the surviving nodes densely
    /// in their old order. Returns the new id of every old node (`None`
    /// for a dropped one).
    ///
    /// When the rows that requested the dropped nodes are exactly the rows
    /// a fresh run no longer builds, and every other request comes in the
    /// same order, the result is the arena that fresh run interns: each
    /// surviving node is first requested by the same surviving row.
    pub fn remove_tuple(&mut self, t: TupleId) -> Vec<Option<ProvId>> {
        let mut map: Vec<Option<ProvId>> = Vec::with_capacity(self.nodes.len());
        let (mut n_nodes, mut n_kids) = (0usize, 0usize);
        self.intern.clear();
        self.chain.clear();
        // Surviving nodes and child slots move only down, so both buffers
        // are compacted in place.
        for id in 0..self.nodes.len() {
            let node = match self.nodes[id] {
                ProvNode::Var(v) if v == t => None,
                ProvNode::Var(v) => Some(ProvNode::Var(TupleId {
                    source: v.source,
                    row: v.row - u32::from(v.source == t.source && v.row > t.row),
                })),
                ProvNode::Times { start, len } | ProvNode::Plus { start, len } => {
                    let new_start = n_kids;
                    let kept = (start..start + len).all(|k| {
                        let kid = map[self.children[k as usize].index()];
                        if let Some(kid) = kid {
                            self.children[n_kids] = kid;
                            n_kids += 1;
                        }
                        kid.is_some()
                    });
                    let start = new_start as u32;
                    match self.nodes[id] {
                        _ if !kept => {
                            n_kids = new_start;
                            None
                        }
                        ProvNode::Times { .. } => Some(ProvNode::Times { start, len }),
                        _ => Some(ProvNode::Plus { start, len }),
                    }
                }
            };
            map.push(node.map(|node| {
                self.nodes[n_nodes] = node;
                n_nodes += 1;
                let h = self.hash_of(n_nodes - 1);
                let new = ProvId(n_nodes as u32 - 1);
                self.chain
                    .push(self.intern.insert(h, new.0).unwrap_or(NO_NODE));
                new
            }));
        }
        self.nodes.truncate(n_nodes);
        self.children.truncate(n_kids);
        map
    }

    /// Iterate over all nodes in id order (children before parents).
    pub fn iter_nodes(&self) -> impl Iterator<Item = (ProvId, ProvNodeRef<'_>)> {
        (0..self.nodes.len()).map(|i| {
            let id = ProvId(i as u32);
            (id, self.node(id))
        })
    }

    /// Resolve a node id to its kind and child slice.
    pub fn node(&self, id: ProvId) -> ProvNodeRef<'_> {
        match self.nodes[id.index()] {
            ProvNode::Var(t) => ProvNodeRef::Var(t),
            ProvNode::Times { start, len } => ProvNodeRef::Times(self.kids_of(start, len)),
            ProvNode::Plus { start, len } => ProvNodeRef::Plus(self.kids_of(start, len)),
        }
    }

    /// All distinct source tuples below `id`, sorted.
    pub fn tuples_of(&self, id: ProvId) -> Vec<TupleId> {
        let mut set = FxHashSet::default();
        let mut stack = vec![id];
        while let Some(top) = stack.pop() {
            match self.node(top) {
                ProvNodeRef::Var(t) => {
                    set.insert(t);
                }
                ProvNodeRef::Times(kids) | ProvNodeRef::Plus(kids) => {
                    stack.extend_from_slice(kids);
                }
            }
        }
        let mut v: Vec<TupleId> = set.into_iter().collect();
        v.sort();
        v
    }

    /// Evaluate *every* node in an arbitrary semiring with one forward pass
    /// (children precede parents by construction). Returns one element per
    /// node, indexable by [`ProvId::index`].
    pub fn eval_nodes<S: Semiring>(&self, assign: &impl Fn(TupleId) -> S::Elem) -> Vec<S::Elem> {
        let mut out: Vec<S::Elem> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match *node {
                ProvNode::Var(t) => assign(t),
                ProvNode::Times { start, len } => self
                    .kids_of(start, len)
                    .iter()
                    .fold(S::one(), |acc, k| S::times(&acc, &out[k.index()])),
                ProvNode::Plus { start, len } => self
                    .kids_of(start, len)
                    .iter()
                    .fold(S::zero(), |acc, k| S::plus(&acc, &out[k.index()])),
            };
            out.push(v);
        }
        out
    }

    /// Boolean-semiring truth value of every node given per-tuple liveness:
    /// one forward pass, no recursion.
    pub fn eval_bool(&self, alive: &impl Fn(TupleId) -> bool) -> Vec<bool> {
        let mut out: Vec<bool> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match *node {
                ProvNode::Var(t) => alive(t),
                ProvNode::Times { start, len } => {
                    self.kids_of(start, len).iter().all(|k| out[k.index()])
                }
                ProvNode::Plus { start, len } => {
                    self.kids_of(start, len).iter().any(|k| out[k.index()])
                }
            };
            out.push(v);
        }
        out
    }

    /// Batched Boolean evaluation: each `u64` carries 64 independent
    /// deletion scenarios (bit `j` = "tuple alive in scenario `j`"), so one
    /// arena pass answers 64 what-if questions. `Times` is lane-wise AND,
    /// `Plus` lane-wise OR.
    pub fn eval_bool_lanes(&self, alive: &impl Fn(TupleId) -> u64) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let v = match *node {
                ProvNode::Var(t) => alive(t),
                ProvNode::Times { start, len } => self
                    .kids_of(start, len)
                    .iter()
                    .fold(!0u64, |acc, k| acc & out[k.index()]),
                ProvNode::Plus { start, len } => self
                    .kids_of(start, len)
                    .iter()
                    .fold(0u64, |acc, k| acc | out[k.index()]),
            };
            out.push(v);
        }
        out
    }

    /// The memoized bottom-up tuple index: for every node, its sorted
    /// distinct tuple set, computed once in a single forward pass (each
    /// node's set is the merge of its children's already-computed sets).
    pub fn tuple_index(&self) -> TupleIndex {
        let mut starts: Vec<u32> = Vec::with_capacity(self.nodes.len() + 1);
        let mut tuples: Vec<TupleId> = Vec::new();
        starts.push(0);
        let mut scratch: Vec<TupleId> = Vec::new();
        for node in &self.nodes {
            match *node {
                ProvNode::Var(t) => tuples.push(t),
                ProvNode::Times { start, len } | ProvNode::Plus { start, len } => {
                    scratch.clear();
                    for k in self.kids_of(start, len) {
                        let lo = starts[k.index()] as usize;
                        let hi = starts[k.index() + 1] as usize;
                        scratch.extend_from_slice(&tuples[lo..hi]);
                    }
                    scratch.sort();
                    scratch.dedup();
                    tuples.extend_from_slice(&scratch);
                }
            }
            starts.push(tuples.len() as u32);
        }
        TupleIndex { starts, tuples }
    }
}

/// Per-node sorted tuple sets in flat storage; built by
/// [`ProvArena::tuple_index`].
#[derive(Debug, Clone)]
pub struct TupleIndex {
    /// `starts[i]..starts[i+1]` is node `i`'s slice of `tuples`.
    starts: Vec<u32>,
    tuples: Vec<TupleId>,
}

impl TupleIndex {
    /// The sorted distinct tuples below node `id`.
    pub fn of(&self, id: ProvId) -> &[TupleId] {
        let lo = self.starts[id.index()] as usize;
        let hi = self.starts[id.index() + 1] as usize;
        &self.tuples[lo..hi]
    }
}

/// Provenance for an executed pipeline: the arena holding every interned
/// polynomial, one node id per output row, plus the source-name table that
/// [`TupleId::source`] indexes into.
#[derive(Debug, Clone)]
pub struct Lineage {
    /// Names of the source tables, in `TupleId.source` order.
    pub sources: Vec<String>,
    /// The interned node store shared by all rows.
    pub arena: ProvArena,
    /// One arena node id per output row.
    pub rows: Vec<ProvId>,
    /// Memoized per-node tuple sets (built on first use, shared by every
    /// row-level query afterwards).
    index_cache: OnceLock<TupleIndex>,
    /// Memoized inverted index: per source, the sorted
    /// `(source_row, output_row)` pairs. Like `index_cache` this is derived
    /// state — both are ignored by `PartialEq` and rebuilt lazily.
    inverted_cache: OnceLock<Vec<Vec<(u32, u32)>>>,
}

/// Equality ignores the lazily-built caches: two lineages are equal when
/// they record the same sources, arena, and per-row ids.
impl PartialEq for Lineage {
    fn eq(&self, other: &Self) -> bool {
        self.sources == other.sources && self.arena == other.arena && self.rows == other.rows
    }
}

impl Eq for Lineage {}

impl Lineage {
    /// Assemble a lineage from its parts (caches start empty).
    pub fn new(sources: Vec<String>, arena: ProvArena, rows: Vec<ProvId>) -> Lineage {
        Lineage {
            sources,
            arena,
            rows,
            index_cache: OnceLock::new(),
            inverted_cache: OnceLock::new(),
        }
    }

    /// Number of output rows covered.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Index of a source by name.
    pub fn source_index(&self, name: &str) -> Option<u32> {
        self.sources
            .iter()
            .position(|s| s == name)
            .map(|i| i as u32)
    }

    /// The sorted distinct source tuples one output row depends on.
    pub fn row_tuples(&self, row: usize) -> Vec<TupleId> {
        self.arena.tuples_of(self.rows[row])
    }

    /// Evaluate every output row in semiring `S` with a single arena pass.
    pub fn eval_rows<S: Semiring>(&self, assign: &impl Fn(TupleId) -> S::Elem) -> Vec<S::Elem> {
        let per_node = self.arena.eval_nodes::<S>(assign);
        self.rows
            .iter()
            .map(|id| per_node[id.index()].clone())
            .collect()
    }

    /// The memoized per-node tuple index, built once on first use (the
    /// arena is immutable after execution, so the index never goes stale).
    pub fn tuple_index(&self) -> &TupleIndex {
        self.index_cache.get_or_init(|| self.arena.tuple_index())
    }

    /// The memoized inverted index over *all* sources: for each source, the
    /// `(source_row, output_row)` dependency pairs sorted by source row, so
    /// the output rows of one source row are one contiguous run. Built with
    /// one arena pass on first use and kept for the lineage's lifetime.
    pub(crate) fn inverted_pairs(&self) -> &Vec<Vec<(u32, u32)>> {
        self.inverted_cache.get_or_init(|| {
            let index = self.tuple_index();
            let mut inv: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.sources.len()];
            for (out_row, id) in self.rows.iter().enumerate() {
                for t in index.of(*id) {
                    if let Some(pairs) = inv.get_mut(t.source as usize) {
                        pairs.push((t.row, out_row as u32));
                    }
                }
            }
            // Pairs arrive in output-row order; sorting by (source_row,
            // output_row) groups each source row while keeping its output
            // rows ascending.
            for pairs in &mut inv {
                pairs.sort_unstable();
            }
            inv
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, r: u32) -> TupleId {
        TupleId::new(s, r)
    }

    #[test]
    fn tuple_id_packs_roundtrip() {
        let id = t(3, 0xdead_beef);
        assert_eq!(TupleId::from_var(id.as_var()), id);
        assert_ne!(t(0, 1).as_var(), t(1, 0).as_var());
    }

    #[test]
    fn arena_interns_identical_subexpressions_once() {
        let mut arena = ProvArena::new();
        let a = arena.var(t(0, 0));
        let b = arena.var(t(1, 0));
        let ab1 = arena.times(a, b);
        let ab2 = arena.times(a, b);
        assert_eq!(ab1, ab2);
        assert_eq!(arena.var(t(0, 0)), a);
        // 3 unique nodes: a, b, a*b.
        assert_eq!(arena.len(), 3);
        let p1 = arena.plus(&[ab1, a]);
        let p2 = arena.plus(&[ab2, a]);
        assert_eq!(p1, p2);
        assert_eq!(arena.len(), 4);
        // Distinct child order is a distinct node (Times is kept ordered).
        let ba = arena.times(b, a);
        assert_ne!(ba, ab1);
    }

    #[test]
    fn single_alternative_plus_collapses() {
        let mut arena = ProvArena::new();
        let a = arena.var(t(0, 0));
        assert_eq!(arena.plus(&[a]), a);
    }

    #[test]
    fn truncate_forgets_the_cut_nodes() {
        let mut arena = ProvArena::new();
        let a = arena.var(t(0, 0));
        let b = arena.var(t(1, 0));
        let ab = arena.times(a, b);
        let kept = arena.clone();
        let c = arena.var(t(0, 1));
        let abc = arena.times(ab, c);
        let p = arena.plus(&[abc, a]);
        arena.truncate(3);
        assert_eq!(arena, kept);
        assert_eq!(arena.children_len(), kept.children_len());
        // The kept nodes are found again; the cut ones come back at their
        // old ids, as a run interning the same requests would place them.
        assert_eq!(arena.times(a, b), ab);
        assert_eq!(arena.var(t(0, 1)), c);
        assert_eq!(arena.times(ab, c), abc);
        assert_eq!(arena.plus(&[abc, a]), p);
        assert_eq!(arena.len(), 6);
    }

    #[test]
    fn tuple_index_matches_per_node_collection() {
        let mut arena = ProvArena::new();
        let a = arena.var(t(0, 0));
        let b = arena.var(t(1, 0));
        let c = arena.var(t(0, 1));
        let ab = arena.times(a, b);
        let abc = arena.times(ab, c);
        let p = arena.plus(&[abc, a]);
        let index = arena.tuple_index();
        for id in [a, b, c, ab, abc, p] {
            assert_eq!(index.of(id), arena.tuples_of(id).as_slice(), "{id:?}");
        }
        // Shared tuple across alternatives is deduplicated.
        assert_eq!(index.of(p), &[t(0, 0), t(0, 1), t(1, 0)]);
    }
}
