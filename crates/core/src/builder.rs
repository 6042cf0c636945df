//! Building SSJoin inputs from token groups.
//!
//! The paper's pipelines (Figure 2) first convert strings to sets and
//! construct normalized representations `R(A, B, norm(A))`. The builder does
//! that conversion for any number of relations at once, so both join sides
//! share one element universe, one weight assignment, and one global order:
//!
//! 1. tokens are interned across all relations;
//! 2. multisets are ordinalized (§4.3.1): occurrence *i* of token *t*
//!    becomes the element *(t, i)*;
//! 3. element weights are assigned (unweighted, or IDF over value
//!    frequencies exactly as §5 describes);
//! 4. the global order `O` is fixed (ascending frequency by default,
//!    §4.3.2) and every element is renamed to its dense *rank* in `O`.
//!
//! A relation ([`TokenGroups`]) is pre-tokenized groups or rows plus a
//! [`Tokenizer`]; rows are tokenized during the build, each token lent as a
//! `&str`, so no `String` per token exists. The build runs on
//! [`SsJoinInputBuilder::with_threads`] workers in three steps:
//!
//! 1. **Intern by chunk.** Each worker takes one contiguous chunk of a
//!    relation's rows and interns them into its own dictionary: local token
//!    ids and local `(token, ordinal)` element ids, each in first-seen
//!    order, plus each element's group frequency and each group's element
//!    ids. The dictionary is keyed by 16 bytes per token: a token of at
//!    most 15 bytes is its own bytes and length, so hashing and comparing
//!    it reads no heap string, and a longer one is an index into the
//!    chunk's long-token text. The table's value holds what a token's
//!    first occurrence in a group needs — its `(t, 1)` element id, its
//!    group count and its latest `(group, ordinal)` — so that occurrence
//!    costs one probe; only ordinals above 1 take a second.
//! 2. **Merge in chunk order.** The first chunk's local ids are already
//!    global, so its dictionary and hash tables become the merged ones as
//!    they are (a one-chunk build does no merge work). Each later chunk is
//!    folded in, in local id order, by the same key (a long token is
//!    re-keyed into the merged dictionary's long-token text). A token or
//!    element new to the merged dictionary is first seen in this chunk, and
//!    its local id orders it among the others first seen there — so every
//!    global id is exactly the one a sequential scan assigns, and
//!    the `(freq, id)` order keys, hence the ranks, are the same at every
//!    thread count. Each token's text is then decoded once, into the
//!    universe's metadata, which the order keys read.
//! 3. **Remap by chunk.** Each worker renames its chunk's element ids to
//!    ranks and appends its sets to a chunk arena; the arenas are
//!    concatenated in chunk order. The arenas store ranks only: a weighted
//!    build's per-rank weights form one table that every collection of the
//!    build shares, and an unweighted build has none ([`SetCollection`]).
//!    Weights are fixed-point, so norms do not depend on summation order. A
//!    relation added with a [`CapRule`] has each set's prefix caps computed
//!    here too, while each element's token index is still known.

use crate::error::{SsJoinError, SsJoinResult};
use crate::hash::{FxHashMap, FxHasher};
use crate::order::ElementOrder;
use crate::set::{weight_at, SetCollection, WeightTable};
use crate::weight::Weight;
use ssjoin_text::{AsRows, Rows, Tokenizer};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

static UNIVERSE_TAG: AtomicU64 = AtomicU64::new(1);

/// A process-unique universe tag, one per build.
pub(crate) fn fresh_universe_tag() -> u64 {
    UNIVERSE_TAG.fetch_add(1, Ordering::Relaxed)
}

/// Element weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// Every element has weight 1. Overlap = multiset intersection size.
    #[default]
    Unweighted,
    /// Inverse document frequency, the paper's §5 choice: the weight of
    /// token `t` is `ln(1 + N / f_t)` where `N` is the total number of
    /// values (groups) across all relations and `f_t` the number of values
    /// containing `t`. (The paper uses `log(N / f_t)`; the `1 +` smoothing
    /// keeps weights strictly positive, which the weight model of §2
    /// requires, without changing relative order.)
    Idf,
    /// Squared IDF: `ln(1 + N / f_t)²`. With this scheme the weighted
    /// overlap of two *sets* equals the dot product of their IDF vectors,
    /// which is what the cosine similarity join needs (§6 cites cosine
    /// custom joins as SSJoin-expressible).
    IdfSquared,
}

/// How a group's norm (the quantity normalized predicates reference) is
/// derived.
#[derive(Debug, Clone, PartialEq)]
pub enum NormKind {
    /// `norm = wt(set)` — the weighted-set norm of Definition 5's Jaccard.
    TotalWeight,
    /// `norm = √wt(set)` — the L2 vector norm when element weights are
    /// squared (see [`WeightScheme::IdfSquared`]); the cosine join's
    /// normalizer.
    SqrtTotalWeight,
    /// `norm = |set|` (multiset cardinality) — e.g. q-gram counts.
    Cardinality,
    /// Caller-provided per-group norms (e.g. string lengths for the edit
    /// join). Must have one value per group.
    Custom(Vec<f64>),
}

impl NormKind {
    /// The norm of group `group` with element weights `weights`.
    fn of(&self, group: usize, weights: impl ExactSizeIterator<Item = Weight>) -> f64 {
        match self {
            NormKind::TotalWeight => weights.sum::<Weight>().to_f64(),
            NormKind::SqrtTotalWeight => weights.sum::<Weight>().to_f64().sqrt(),
            NormKind::Cardinality => weights.len() as f64,
            NormKind::Custom(norms) => norms[group],
        }
    }
}

/// Identifies a relation added to the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationHandle(usize);

/// Where a relation's token groups come from
/// ([`SsJoinInputBuilder::add_groups`]).
pub enum TokenGroups<'a> {
    /// One token multiset per group.
    Tokenized(Vec<Vec<String>>),
    /// One string per group, tokenized during the build — on the build's
    /// workers, each row and each token lent as a `&str`, so no `String` per
    /// row or token exists. Builds like `Tokenized` of `rows` mapped through
    /// [`Tokenizer::tokenize`].
    Text {
        /// One string per group: a [`ssjoin_text::Rows`] buffer, a slice of
        /// `String`s, or anything else that lends rows as a
        /// [`ssjoin_text::RowsRef`].
        rows: &'a (dyn AsRows + Sync),
        /// Cuts each row into its token multiset.
        tokenizer: &'a (dyn Tokenizer + Sync),
        /// The row each group reads, when the groups take the rows in
        /// another order (a permutation of the row indices); `None` reads
        /// row `i` as group `i`. The edit join passes the rows' length
        /// order, without copying a row.
        order: Option<&'a [u32]>,
    },
}

impl TokenGroups<'_> {
    fn len(&self) -> usize {
        match self {
            TokenGroups::Tokenized(groups) => groups.len(),
            TokenGroups::Text { rows, order, .. } => {
                order.map_or(rows.as_rows().len(), <[u32]>::len)
            }
        }
    }

    /// Call `f` on every token of group `group`, in order.
    fn visit(&self, group: usize, scratch: &mut String, f: &mut dyn FnMut(&str)) {
        match self {
            TokenGroups::Tokenized(groups) => groups[group].iter().for_each(|t| f(t)),
            TokenGroups::Text {
                rows,
                tokenizer,
                order,
            } => {
                let row = order.map_or(group, |order| order[group] as usize);
                tokenizer.for_each_token(rows.as_rows().get(row), scratch, f)
            }
        }
    }
}

/// A rule that caps each set's prefix during the build
/// ([`SsJoinInputBuilder::add_groups_capped`]). The build calls it once per
/// group, on its workers, with the group's index and the set's elements in
/// rank order, each as `(first, at)`: the indices, in the group's token
/// order, of its token's first occurrence and of this occurrence (element
/// `(t, k)` is the k-th occurrence of token t). It returns the set's prefix
/// caps as the R side and as the S side of [`crate::ssjoin_filtered`].
pub type CapRule<'a> = &'a (dyn Fn(usize, &[(u32, u32)]) -> [u32; 2] + Sync);

struct RelationData<'a> {
    groups: TokenGroups<'a>,
    norm: NormKind,
    cap_rule: Option<CapRule<'a>>,
}

/// Builds [`SetCollection`]s sharing one universe, weight assignment, and
/// global element order.
pub struct SsJoinInputBuilder<'a> {
    scheme: WeightScheme,
    order: ElementOrder,
    threads: usize,
    relations: Vec<RelationData<'a>>,
}

impl<'a> SsJoinInputBuilder<'a> {
    /// New builder with the given weighting scheme and global order. It
    /// builds on one thread until [`SsJoinInputBuilder::with_threads`].
    pub fn new(scheme: WeightScheme, order: ElementOrder) -> Self {
        Self {
            scheme,
            order,
            threads: 1,
            relations: Vec::new(),
        }
    }

    /// Build on `threads` workers (0 counts as 1). The output — ranks,
    /// weights, norms — is the same at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Add a relation: one token multiset per group. Norms default to the
    /// set's total weight.
    pub fn add_relation(&mut self, groups: Vec<Vec<String>>) -> RelationHandle {
        self.add_relation_with_norm(groups, NormKind::TotalWeight)
    }

    /// Add a relation with an explicit norm derivation.
    pub fn add_relation_with_norm(
        &mut self,
        groups: Vec<Vec<String>>,
        norm: NormKind,
    ) -> RelationHandle {
        self.add_groups(TokenGroups::Tokenized(groups), norm)
    }

    /// Add a relation of `groups` whose norms derive by `norm`.
    ///
    /// `NormKind::Custom` norms must have one value per group; the arity is
    /// validated by [`SsJoinInputBuilder::build`], which reports a mismatch
    /// as [`SsJoinError::InvalidInput`].
    pub fn add_groups(&mut self, groups: TokenGroups<'a>, norm: NormKind) -> RelationHandle {
        self.push(groups, norm, None)
    }

    /// [`Self::add_groups`], with `rule` applied to every set of the
    /// relation as it is built; [`BuiltInput::prefix_caps`] returns the
    /// caps.
    pub fn add_groups_capped(
        &mut self,
        groups: TokenGroups<'a>,
        norm: NormKind,
        rule: CapRule<'a>,
    ) -> RelationHandle {
        self.push(groups, norm, Some(rule))
    }

    fn push(
        &mut self,
        groups: TokenGroups<'a>,
        norm: NormKind,
        cap_rule: Option<CapRule<'a>>,
    ) -> RelationHandle {
        let handle = RelationHandle(self.relations.len());
        self.relations.push(RelationData {
            groups,
            norm,
            cap_rule,
        });
        handle
    }

    /// Materialize every relation into a [`SetCollection`].
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] when `NormKind::Custom` norms do
    /// not have one value per group, [`SsJoinError::TooManyGroups`] when a
    /// relation holds more groups than `u32` ids can address (group ids are
    /// capped at `u32::MAX - 1`, reserving `u32::MAX` as an executor
    /// sentinel), and [`SsJoinError::TooManyElements`] when the interned
    /// token/element universe or a collection's tuple arena overflows the
    /// `u32` id space.
    pub fn build(self) -> SsJoinResult<BuiltInput> {
        let tag = fresh_universe_tag();

        // Validate up front: custom-norm arity and the group-id space.
        // Group ids must stay strictly below u32::MAX because executors use
        // u32::MAX as a stamp-array sentinel.
        for (ri, rel) in self.relations.iter().enumerate() {
            let groups = rel.groups.len();
            if groups >= u32::MAX as usize {
                return Err(SsJoinError::TooManyGroups {
                    relation: ri,
                    groups,
                });
            }
            if let NormKind::Custom(norms) = &rel.norm {
                if norms.len() != groups {
                    return Err(SsJoinError::InvalidInput(format!(
                        "custom norms must have one value per group: relation {ri} \
                         has {groups} groups but {} norms",
                        norms.len()
                    )));
                }
            }
        }
        let total_groups: usize = self.relations.iter().map(|r| r.groups.len()).sum();

        // Step 1: each worker interns one contiguous chunk of a relation.
        let chunks = self.chunks();
        let interned = par_map(
            chunks.iter().cloned().enumerate().collect(),
            self.threads,
            |(ci, (ri, rows))| intern_chunk(&self.relations[ri].groups, rows, ci == 0),
        );
        let (dicts, groups): (Vec<ChunkDict>, Vec<ChunkGroups>) = interned
            .into_iter()
            .collect::<SsJoinResult<Vec<_>>>()?
            .into_iter()
            .unzip();

        // Step 2: merge the dictionaries in chunk order, then decode each
        // token's text once, for the metadata and the order keys.
        let MergedDict {
            tokens,
            long,
            first_eid,
            elements,
            element_freq,
            eid_maps,
            tables,
        } = MergedDict::merge(dicts)?;
        drop(tables);
        let mut meta = ElementMeta::new(tokens.iter().map(|key| key.text(&long)))?;
        drop((tokens, long));

        // The weight of a token, from the scheme (unit weights need none).
        // A token's group frequency is its first occurrence's, `(t, 1)`.
        let token_weight = |tid: u32| {
            let ft = element_freq[first_eid[tid as usize] as usize].max(1) as f64;
            let idf = (1.0 + total_groups as f64 / ft).ln();
            match self.scheme {
                WeightScheme::Unweighted => Weight::ONE,
                WeightScheme::Idf => Weight::from_f64(idf),
                WeightScheme::IdfSquared => Weight::from_f64(idf * idf),
            }
        };

        // Global order: rank per eid.
        let mut order_keys: Vec<u32> = (0..elements.len() as u32).collect();
        order_keys.sort_unstable_by_key(|&eid| {
            let token = || meta.token(elements[eid as usize].0);
            self.order
                .sort_key(element_freq[eid as usize], token, eid as u64)
        });
        let mut rank_of_eid = vec![0u32; elements.len()];
        for (rank, &eid) in order_keys.iter().enumerate() {
            rank_of_eid[eid as usize] = rank as u32;
        }

        // Element metadata and the weight table, in rank order.
        meta.place(&elements, &rank_of_eid);
        let weights: WeightTable = (self.scheme != WeightScheme::Unweighted).then(|| {
            let mut by_rank = vec![Weight::ZERO; elements.len()];
            for (&(tid, _), &rank) in elements.iter().zip(&rank_of_eid) {
                by_rank[rank as usize] = token_weight(tid);
            }
            Arc::new(by_rank)
        });

        // Step 3: each worker remaps one chunk into an arena; a relation's
        // arenas are concatenated in chunk order.
        let universe = elements.len();
        let by_eid: Vec<Element> = rank_of_eid
            .into_iter()
            .zip(&elements)
            .map(|(rank, &(token, _))| Element { rank, token })
            .collect();
        let work: Vec<_> = chunks.into_iter().zip(groups).zip(eid_maps).collect();
        let parts = par_map(work, self.threads, |(((ri, rows), groups), eid_map)| {
            let rel = &self.relations[ri];
            let elem = |e: u32| match &eid_map {
                Some(map) => by_eid[map[e as usize] as usize],
                None => by_eid[e as usize],
            };
            let capping = rel.cap_rule.map(|rule| (rule, first_eid.len()));
            let arena = SetCollection::empty(universe, tag, weights.clone());
            (
                ri,
                groups.into_arena(arena, rows.start, &rel.norm, elem, capping),
            )
        });
        let mut collections: Vec<SetCollection> = (0..self.relations.len())
            .map(|_| SetCollection::empty(universe, tag, weights.clone()))
            .collect();
        let mut prefix_caps: Vec<Option<[Vec<u32>; 2]>> = self
            .relations
            .iter()
            .map(|rel| rel.cap_rule.map(|_| [Vec::new(), Vec::new()]))
            .collect();
        for (ri, arena) in parts {
            let (arena, caps) = arena?;
            collections[ri].append(arena)?;
            if let Some([r, s]) = &mut prefix_caps[ri] {
                r.extend(caps.iter().map(|c| c[0]));
                s.extend(caps.iter().map(|c| c[1]));
            }
        }

        Ok(BuiltInput {
            collections,
            meta,
            weights,
            prefix_caps,
        })
    }

    /// The build's work units: each relation's rows cut into `threads`
    /// contiguous chunks (empty chunks skipped), relation after relation.
    fn chunks(&self) -> Vec<(usize, Range<usize>)> {
        let mut chunks = Vec::new();
        for (ri, rel) in self.relations.iter().enumerate() {
            let n = rel.groups.len();
            let len = n.div_ceil(self.threads).max(1);
            chunks.extend((0..n).step_by(len).map(|lo| (ri, lo..(lo + len).min(n))));
        }
        chunks
    }
}

/// `f` over every item on up to `threads` workers, each taking the next
/// unclaimed item; results come back in item order, so they never depend on
/// the thread count.
fn par_map<T: Send, U: Send>(items: Vec<T>, threads: usize, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let threads = threads.min(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let mut done: Vec<(usize, U)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while let Some((i, item)) = next() {
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        let mut done = Vec::new();
        for worker in workers {
            // A worker that unwinds re-raises its panic here rather than
            // dropping its items.
            match worker.join() {
                Ok(out) => done.extend(out),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
}

/// `Err(TooManyElements)` once `len` ids have been handed out: one more
/// would not fit `u32`.
fn check_id_space(len: usize) -> SsJoinResult<()> {
    if len >= u32::MAX as usize {
        return Err(SsJoinError::TooManyElements { elements: len + 1 });
    }
    Ok(())
}

/// A token as a 16-byte dictionary key. A token of at most
/// [`Key::INLINE`] bytes is its own bytes, zero-padded, with its length in
/// the last byte, so hashing or comparing it reads no other memory. A longer
/// token is the marker [`Key::LONG`] in the last byte and its index into a
/// [`LongTokens`] store in the first four.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key([u8; 16]);

impl Key {
    /// The longest token a key holds inline.
    const INLINE: usize = 15;
    /// The last byte of a long token's key (an inline length is at most 15).
    const LONG: u8 = u8::MAX;

    /// The key of `token`, interning it into `long` when it is long.
    fn new(token: &str, long: &mut LongTokens) -> SsJoinResult<Self> {
        let bytes = token.as_bytes();
        let mut key = [0u8; 16];
        if bytes.len() <= Self::INLINE {
            key[..bytes.len()].copy_from_slice(bytes);
            key[15] = bytes.len() as u8;
        } else {
            key[..4].copy_from_slice(&long.intern(token)?.to_le_bytes());
            key[15] = Self::LONG;
        }
        Ok(Key(key))
    }

    /// The long-token index of a long key.
    fn long_index(self) -> Option<u32> {
        let [a, b, c, d, ..] = self.0;
        (self.0[15] == Self::LONG).then_some(u32::from_le_bytes([a, b, c, d]))
    }

    /// This key for `to`'s store: a long key's token is interned there
    /// from `from`, an inline key is its own.
    fn rehome(self, from: &LongTokens, to: &mut LongTokens) -> SsJoinResult<Self> {
        match self.long_index() {
            Some(i) => Key::new(from.get(i), to),
            None => Ok(self),
        }
    }

    /// The token's text; a long token's is read from `long`.
    fn text<'k>(&'k self, long: &'k LongTokens) -> &'k str {
        match self.long_index() {
            Some(i) => long.get(i),
            None => std::str::from_utf8(&self.0[..usize::from(self.0[15])])
                .expect("an inline key holds a whole token"),
        }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One wide multiply folds all sixteen bytes into the low bits the
        // table indexes by; a multiply-xor hash of the two halves would
        // leave those bits to the token's first bytes.
        const LO: u64 = 0x243f_6a88_85a3_08d3;
        const HI: u64 = 0x1319_8a2e_0370_7344;
        let key = u128::from_le_bytes(self.0);
        let m = u128::from(key as u64 ^ LO) * u128::from((key >> 64) as u64 ^ HI);
        state.write_u64(m as u64 ^ (m >> 64) as u64);
    }
}

/// Tokens longer than [`Key::INLINE`] bytes, each stored once: their text,
/// as rows, and an open-addressing index over it.
#[derive(Default)]
struct LongTokens {
    /// Token `i`'s text is row `i`.
    tokens: Rows,
    /// A power-of-two table, at most half full, of token indices plus one
    /// (0 is an empty slot).
    slots: Vec<u32>,
}

impl LongTokens {
    /// The text of token `i`.
    fn get(&self, i: u32) -> &str {
        self.tokens.get(i as usize)
    }

    /// The slot `token` hashes to in a table of `len` (a power of two)
    /// slots: the hash's top bits, which its multiplies mix best.
    fn home(token: &str, len: usize) -> usize {
        let mut h = FxHasher::default();
        h.write(token.as_bytes());
        (h.finish() >> (64 - len.trailing_zeros())) as usize
    }

    /// The index of `token`, stored on first sight.
    ///
    /// # Errors
    /// [`SsJoinError::TooManyElements`] when the text outgrows the `u32`
    /// offset space.
    fn intern(&mut self, token: &str) -> SsJoinResult<u32> {
        if 2 * (self.tokens.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = Self::home(token, self.slots.len());
        loop {
            match self.slots[at] {
                0 => break,
                i if self.get(i - 1) == token => return Ok(i - 1),
                _ => at = (at + 1) & mask,
            }
        }
        self.tokens.push(token).map_err(too_long)?;
        self.slots[at] = self.tokens.len() as u32;
        Ok(self.tokens.len() as u32 - 1)
    }

    /// Double the index (16 slots at first) and re-place every token.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let mut slots = vec![0u32; len];
        for (i, token) in (1..).zip(self.tokens.iter()) {
            let mut at = Self::home(token, len);
            while slots[at] != 0 {
                at = (at + 1) & (len - 1);
            }
            slots[at] = i;
        }
        self.slots = slots;
    }
}

/// A token text that outgrew the `u32` offsets of its [`Rows`].
fn too_long(e: ssjoin_text::RowsOverflow) -> SsJoinError {
    SsJoinError::TooManyElements { elements: e.bytes }
}

/// A dictionary's hash tables: each token's [`Slot`] by key (read for its
/// `first_eid`, the element id of `(t, 1)`), and the element id of each
/// later occurrence `(t, k)`, `k > 1`, by `(first_eid, k)`.
#[derive(Default)]
struct Tables {
    table: FxHashMap<Key, Slot>,
    later: FxHashMap<(u32, u32), u32>,
}

/// One chunk's dictionary (step 1): local ids in first-seen order.
struct ChunkDict {
    /// Local token id → key.
    keys: Vec<Key>,
    /// The text of the chunk's long keys.
    long: LongTokens,
    /// Local element id → `(local token id, ordinal)`.
    elements: Vec<(u32, u32)>,
    /// Local element id → groups of the chunk holding it (a `(t, 1)`
    /// element's is counted in its token's [`Slot`] and written at the end
    /// of the chunk).
    freq: Vec<u32>,
    /// The tables the chunk was interned through, kept for the first chunk
    /// only: its local ids are the global ones, so the merge starts from
    /// them.
    tables: Option<Tables>,
}

/// A chunk token's value in its dictionary's table: everything a first
/// occurrence in a group needs, so it costs one probe.
struct Slot {
    /// Local element id of `(t, 1)`.
    first_eid: u32,
    /// Groups of the chunk holding the token, so far: `(t, 1)`'s frequency.
    groups: u32,
    /// The stamp (1-based group index) of the token's latest occurrence.
    stamp: u32,
    /// The ordinal of that occurrence.
    ord: u32,
}

/// One chunk's groups as local element ids (step 1).
struct ChunkGroups {
    /// Group `g` of the chunk holds `eids[ends[g - 1]..ends[g]]`.
    ends: Vec<usize>,
    eids: Vec<u32>,
}

/// Tokenize and intern groups `rows` of `groups` into a chunk dictionary.
/// With `keep_tables` the dictionary keeps its hash tables, so the merge
/// can start from them.
fn intern_chunk(
    groups: &TokenGroups<'_>,
    rows: Range<usize>,
    keep_tables: bool,
) -> SsJoinResult<(ChunkDict, ChunkGroups)> {
    let mut table: FxHashMap<Key, Slot> = FxHashMap::default();
    let mut dict = ChunkDict {
        keys: Vec::new(),
        long: LongTokens::default(),
        elements: Vec::new(),
        freq: Vec::new(),
        tables: None,
    };
    // Ordinal 1 is read from the token's slot; later ordinals go through
    // `later`.
    let mut later: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut out = ChunkGroups {
        ends: Vec::with_capacity(rows.len()),
        eids: Vec::new(),
    };
    let mut scratch = String::new();
    let mut overflow = Ok(());
    for (stamp, group) in (1..).zip(rows) {
        groups.visit(group, &mut scratch, &mut |token| {
            if overflow.is_err() {
                return;
            }
            let eid = match intern_token(token, stamp, &mut table, &mut later, &mut dict) {
                Ok(eid) => eid,
                Err(e) => {
                    overflow = Err(e);
                    return;
                }
            };
            out.eids.push(eid);
        });
        std::mem::replace(&mut overflow, Ok(()))?;
        out.ends.push(out.eids.len());
    }
    for slot in table.values() {
        dict.freq[slot.first_eid as usize] = slot.groups;
    }
    dict.tables = keep_tables.then_some(Tables { table, later });
    Ok((dict, out))
}

/// The local element id of `token`'s occurrence in group `stamp`, interning
/// the token and the element on first sight.
fn intern_token(
    token: &str,
    stamp: u32,
    table: &mut FxHashMap<Key, Slot>,
    later: &mut FxHashMap<(u32, u32), u32>,
    dict: &mut ChunkDict,
) -> SsJoinResult<u32> {
    let key = Key::new(token, &mut dict.long)?;
    let slot = match table.entry(key) {
        Entry::Occupied(slot) => slot.into_mut(),
        Entry::Vacant(slot) => {
            check_id_space(dict.elements.len())?;
            let first_eid = dict.elements.len() as u32;
            dict.elements.push((dict.keys.len() as u32, 1));
            dict.keys.push(key);
            dict.freq.push(0);
            slot.insert(Slot {
                first_eid,
                groups: 0,
                stamp: 0,
                ord: 0,
            })
        }
    };
    if slot.stamp != stamp {
        slot.stamp = stamp;
        slot.ord = 1;
        slot.groups += 1;
        return Ok(slot.first_eid);
    }
    slot.ord += 1;
    let eid = match later.entry((slot.first_eid, slot.ord)) {
        Entry::Occupied(e) => *e.get(),
        Entry::Vacant(e) => {
            check_id_space(dict.elements.len())?;
            let eid = dict.elements.len() as u32;
            let (tid, _) = dict.elements[slot.first_eid as usize];
            dict.elements.push((tid, slot.ord));
            dict.freq.push(0);
            *e.insert(eid)
        }
    };
    dict.freq[eid as usize] += 1;
    Ok(eid)
}

/// The chunk dictionaries merged in chunk order (step 2): global ids equal
/// the first-seen ids of a sequential scan.
#[derive(Default)]
struct MergedDict {
    /// Global token id → key.
    tokens: Vec<Key>,
    /// The text of the long keys.
    long: LongTokens,
    /// Global token id → global element id of `(t, 1)`.
    first_eid: Vec<u32>,
    /// Global element id → `(global token id, ordinal)`.
    elements: Vec<(u32, u32)>,
    /// Global element id → groups holding it, over every relation.
    element_freq: Vec<usize>,
    /// Per chunk: local element id → global element id; `None` when they
    /// are equal (the first chunk).
    eid_maps: Vec<Option<Vec<u32>>>,
    /// The global ids by key, as in a chunk.
    tables: Tables,
}

impl MergedDict {
    /// Merge `dicts` in order. The first chunk's local ids already are the
    /// global ones, so its dictionary and tables become the merged ones
    /// as they are; only the later chunks are folded in, so a one-chunk
    /// build does no merge work.
    fn merge(dicts: Vec<ChunkDict>) -> SsJoinResult<Self> {
        let mut dicts = dicts.into_iter();
        let mut m = MergedDict::default();
        if let Some(mut first) = dicts.next() {
            match first.tables.take() {
                Some(tables) => m.seed(first, tables),
                None => m.fold(&first)?,
            }
        }
        for dict in dicts {
            m.fold(&dict)?;
        }
        Ok(m)
    }

    /// Start from the first chunk, interned through `tables`: its ids are
    /// the global ones.
    fn seed(&mut self, first: ChunkDict, tables: Tables) {
        self.first_eid = vec![0; first.keys.len()];
        for (eid, &(tid, ord)) in (0..).zip(&first.elements) {
            if ord == 1 {
                self.first_eid[tid as usize] = eid;
            }
        }
        self.element_freq = first.freq.iter().map(|&f| f as usize).collect();
        (self.tokens, self.long, self.elements) = (first.keys, first.long, first.elements);
        self.tables = tables;
        self.eid_maps.push(None);
    }

    /// Fold in the next chunk, element by element in local id order. A
    /// token's `(t, 1)` comes before its later ordinals, and the chunk's
    /// tokens were first seen in the order of their `(t, 1)`s, so a token
    /// or element new to the merged dictionary gets the id a sequential
    /// scan gives it.
    fn fold(&mut self, dict: &ChunkDict) -> SsJoinResult<()> {
        let mut tid_map = Vec::with_capacity(dict.keys.len());
        let mut eid_map = Vec::with_capacity(dict.elements.len());
        for (&(local_tid, ord), &freq) in dict.elements.iter().zip(&dict.freq) {
            let eid = if ord == 1 {
                let key = dict.keys[local_tid as usize].rehome(&dict.long, &mut self.long)?;
                let eid = match self.tables.table.entry(key) {
                    Entry::Occupied(slot) => slot.get().first_eid,
                    Entry::Vacant(slot) => {
                        check_id_space(self.tokens.len())?;
                        check_id_space(self.elements.len())?;
                        let (tid, eid) = (self.tokens.len() as u32, self.elements.len() as u32);
                        self.tokens.push(key);
                        self.first_eid.push(eid);
                        self.elements.push((tid, 1));
                        self.element_freq.push(0);
                        slot.insert(Slot {
                            first_eid: eid,
                            groups: 0,
                            stamp: 0,
                            ord: 0,
                        });
                        eid
                    }
                };
                tid_map.push(self.elements[eid as usize].0);
                eid
            } else {
                let tid = tid_map[local_tid as usize];
                let first = self.first_eid[tid as usize];
                match self.tables.later.entry((first, ord)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        check_id_space(self.elements.len())?;
                        let eid = self.elements.len() as u32;
                        self.elements.push((tid, ord));
                        self.element_freq.push(0);
                        *e.insert(eid)
                    }
                }
            };
            self.element_freq[eid as usize] += freq as usize;
            eid_map.push(eid);
        }
        self.eid_maps.push(Some(eid_map));
        Ok(())
    }
}

/// A global element id's rank and token id (step 3).
#[derive(Clone, Copy)]
struct Element {
    rank: u32,
    token: u32,
}

impl ChunkGroups {
    /// The chunk's groups appended to the empty `arena`: each element id
    /// renamed by `elem`, sorted by rank, with the norm of relation group
    /// `first + g` for chunk group `g` (weights read from the arena's
    /// table) — and, with `capping` (a [`CapRule`] and the token count),
    /// each group's caps from the rule, in group order.
    fn into_arena(
        self,
        mut arena: SetCollection,
        first: usize,
        norm: &NormKind,
        elem: impl Fn(u32) -> Element,
        capping: Option<(CapRule<'_>, usize)>,
    ) -> SsJoinResult<(SetCollection, Vec<[u32; 2]>)> {
        check_id_space(self.eids.len())?;
        arena.reserve(self.ends.len(), self.eids.len());
        // Each element as `(rank, token index)`.
        let mut set: Vec<(u32, u32)> = Vec::new();
        let mut ranks = Vec::new();
        // Capping scratch: per token id, the last group (1-based) it
        // occurred in and its first token index there; per token index, its
        // token's first index; the spans handed to the rule.
        let mut caps = Vec::new();
        let mut seen = vec![(0u32, 0u32); capping.map_or(0, |(_, tokens)| tokens)];
        let (mut firsts, mut spans) = (Vec::new(), Vec::new());
        let mut start = 0;
        for ((g, &end), stamp) in self.ends.iter().enumerate().zip(1u32..) {
            let eids = &self.eids[start..end];
            start = end;
            set.clear();
            firsts.clear();
            for (at, &e) in (0u32..).zip(eids) {
                let Element { rank, token } = elem(e);
                set.push((rank, at));
                if capping.is_some() {
                    let slot = &mut seen[token as usize];
                    if slot.0 != stamp {
                        *slot = (stamp, at);
                    }
                    firsts.push(slot.1);
                }
            }
            let table = arena.weight_table();
            let norm = norm.of(first + g, set.iter().map(|&(r, _)| weight_at(table, r)));
            set.sort_unstable_by_key(|&(rank, _)| rank);
            if let Some((rule, _)) = capping {
                spans.clear();
                spans.extend(set.iter().map(|&(_, at)| (firsts[at as usize], at)));
                caps.push(rule(first + g, &spans));
            }
            ranks.clear();
            ranks.extend(set.iter().map(|&(r, _)| r));
            arena.push_set_presorted(&ranks, norm);
        }
        Ok((arena, caps))
    }
}

/// The universe's `(token, ordinal)` per rank: every distinct token's text
/// once, in one buffer, so no `String` per element exists.
#[derive(Debug)]
struct ElementMeta {
    /// Token `t`'s text is row `t`.
    tokens: Rows,
    /// Per rank: the element's token index and ordinal.
    by_rank: Vec<(u32, u32)>,
}

impl ElementMeta {
    /// The metadata of a universe whose token `t` is the `t`-th of
    /// `tokens`, with no element placed yet ([`Self::place`]).
    ///
    /// # Errors
    /// [`SsJoinError::TooManyElements`] when the tokens' text outgrows the
    /// `u32` offset space.
    fn new<'t>(tokens: impl Iterator<Item = &'t str> + Clone) -> SsJoinResult<Self> {
        let bytes: usize = tokens.clone().map(str::len).sum();
        let mut rows = Rows::with_capacity(bytes, tokens.size_hint().0);
        for token in tokens {
            rows.push(token).map_err(too_long)?;
        }
        Ok(Self {
            tokens: rows,
            by_rank: Vec::new(),
        })
    }

    /// The text of token `t`.
    fn token(&self, t: u32) -> &str {
        self.tokens.get(t as usize)
    }

    /// Place `elements` (`(token id, ordinal)` per element id) by
    /// `rank_of_eid`.
    fn place(&mut self, elements: &[(u32, u32)], rank_of_eid: &[u32]) {
        self.by_rank = vec![(0, 0); elements.len()];
        for (&element, &rank) in elements.iter().zip(rank_of_eid) {
            self.by_rank[rank as usize] = element;
        }
    }

    /// The `(token, ordinal)` of `rank`.
    fn get(&self, rank: u32) -> (&str, u32) {
        let (t, ord) = self.by_rank[rank as usize];
        (self.token(t), ord)
    }

    fn len(&self) -> usize {
        self.by_rank.len()
    }
}

/// The output of [`SsJoinInputBuilder::build`]: the collections plus the
/// shared universe metadata.
#[derive(Debug)]
pub struct BuiltInput {
    collections: Vec<SetCollection>,
    /// `(token, ordinal)` per rank.
    meta: ElementMeta,
    /// Weight per rank, shared with every collection; `None` when the build
    /// is unweighted.
    weights: WeightTable,
    /// Per relation: its sets' caps as the R and as the S side, when it was
    /// added with a [`CapRule`].
    prefix_caps: Vec<Option<[Vec<u32>; 2]>>,
}

impl BuiltInput {
    /// The collection built for `handle`.
    pub fn collection(&self, handle: RelationHandle) -> &SetCollection {
        &self.collections[handle.0]
    }

    /// All collections, in handle order.
    pub fn collections(&self) -> &[SetCollection] {
        &self.collections
    }

    /// Consume into the collections, in handle order.
    pub fn into_collections(self) -> Vec<SetCollection> {
        self.collections
    }

    /// The prefix caps of `handle`'s sets as the R side and as the S side of
    /// a join, in set order, when it was added through
    /// [`SsJoinInputBuilder::add_groups_capped`].
    pub fn prefix_caps(&self, handle: RelationHandle) -> Option<(&[u32], &[u32])> {
        self.prefix_caps[handle.0]
            .as_ref()
            .map(|[r, s]| (r.as_slice(), s.as_slice()))
    }

    /// Number of distinct elements in the universe.
    pub fn universe_size(&self) -> usize {
        self.meta.len()
    }

    /// The `(token, ordinal)` a rank denotes.
    pub fn element(&self, rank: u32) -> (&str, u32) {
        self.meta.get(rank)
    }

    /// The weight of the element at `rank`.
    pub fn element_weight(&self, rank: u32) -> Weight {
        weight_at(self.weights.as_deref().map(Vec::as_slice), rank)
    }

    /// A [`QueryEncoder`] over this build's frozen universe, for encoding
    /// streamed queries against a prebuilt [`crate::CorpusIndex`]. It shares
    /// the build's weight table.
    pub fn query_encoder(&self) -> QueryEncoder {
        let mut ids: FxHashMap<String, Vec<u32>> = FxHashMap::default();
        for rank in 0..self.meta.len() as u32 {
            let (token, ord) = self.meta.get(rank);
            let slots = ids.entry(token.to_owned()).or_default();
            let idx = (ord as usize).saturating_sub(1);
            if slots.len() <= idx {
                slots.resize(idx + 1, u32::MAX);
            }
            slots[idx] = rank;
        }
        QueryEncoder {
            ids,
            weights: self.weights.clone(),
            universe_size: self.meta.len(),
            universe_tag: self
                .collections
                .first()
                .map(|c| c.universe_tag())
                .unwrap_or_else(fresh_universe_tag),
        }
    }
}

/// Encodes fresh token groups against the frozen universe of an existing
/// [`BuiltInput`], so streamed queries (and incremental corpus inserts) can
/// run against a prebuilt [`crate::CorpusIndex`] without rebuilding the
/// whole input.
///
/// Tokens — and multiset occurrences — never seen by the original build have
/// no rank in the frozen universe and are dropped from the encoded set. That
/// is exact for overlaps: an unseen element occurs in no corpus set, so it
/// can contribute nothing to any overlap. Norms derived outside the element
/// universe stay exact too ([`NormKind::Cardinality`] counts *all* tokens of
/// the group, dropped or not, and [`NormKind::Custom`] is caller-provided).
/// [`NormKind::TotalWeight`] and [`NormKind::SqrtTotalWeight`] sum the
/// weights of *known* elements only, which under-states the norm of queries
/// containing unseen tokens; prefer cardinality or custom norms for streamed
/// workloads under those schemes.
#[derive(Debug, Clone)]
pub struct QueryEncoder {
    /// token -> rank per ordinal (index `ord - 1`).
    ids: FxHashMap<String, Vec<u32>>,
    /// The build's weight table (shared, not copied).
    weights: WeightTable,
    universe_size: usize,
    universe_tag: u64,
}

impl QueryEncoder {
    /// Look up the rank of `(token, ordinal)` in the frozen universe.
    /// Ordinals are 1-based, matching §4.3.1 ordinalization.
    pub fn rank_of(&self, token: &str, ordinal: u32) -> Option<u32> {
        self.ids
            .get(token)
            .and_then(|slots| slots.get((ordinal as usize).checked_sub(1)?))
            .copied()
            .filter(|&r| r != u32::MAX)
    }

    /// Encode one token multiset into element ranks, dropping tokens
    /// outside the frozen universe. Ranks come back in occurrence order;
    /// [`QueryEncoder::encode`] (via the collection constructor) handles
    /// sorting. An element's weight is its rank's in the universe
    /// ([`BuiltInput::element_weight`]).
    pub fn encode_group(&self, group: &[String]) -> Vec<u32> {
        let mut occurrence: FxHashMap<&str, u32> = FxHashMap::default();
        let mut ranks = Vec::with_capacity(group.len());
        for token in group {
            let ord = occurrence.entry(token.as_str()).or_insert(0);
            *ord += 1;
            if let Some(rank) = self.rank_of(token, *ord) {
                ranks.push(rank);
            }
        }
        ranks
    }

    /// Encode token groups into a [`SetCollection`] sharing the frozen
    /// universe (same tag, same ranks, the same weight table), suitable as
    /// a probe batch for [`crate::CorpusIndex::probe`].
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] when `NormKind::Custom` norms
    /// do not have one value per group.
    pub fn encode(&self, groups: &[Vec<String>], norm: NormKind) -> SsJoinResult<SetCollection> {
        if let NormKind::Custom(norms) = &norm {
            if norms.len() != groups.len() {
                return Err(SsJoinError::InvalidInput(format!(
                    "custom norms must have one value per group: \
                     {} groups but {} norms",
                    groups.len(),
                    norms.len()
                )));
            }
        }
        let table = self.weights.as_deref().map(Vec::as_slice);
        let mut sets = Vec::with_capacity(groups.len());
        for (gi, group) in groups.iter().enumerate() {
            let ranks = self.encode_group(group);
            let norm_value = match &norm {
                NormKind::Cardinality => group.len() as f64,
                norm => norm.of(gi, ranks.iter().map(|&r| weight_at(table, r))),
            };
            sets.push((ranks, norm_value));
        }
        SetCollection::from_sets(
            sets,
            self.universe_size,
            self.universe_tag,
            self.weights.clone(),
        )
    }

    /// Number of distinct elements in the frozen universe.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unweighted_overlap_counts_elements() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![toks(&["a", "b", "c"]), toks(&["b", "c", "d"])]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        assert_eq!(c.len(), 2);
        assert_eq!(c.set(0).overlap(c.set(1)), Weight::from_f64(2.0));
    }

    #[test]
    fn cap_rule_sees_where_each_element_sits() {
        // The rule gets each set's elements in rank order as (first, at)
        // token indices — "a b a c a" holds (a, k) at 0, 2, 4, each first
        // at 0 — and its caps come back in set order, at any thread count.
        let groups = vec![
            toks(&["a", "b", "a", "c", "a"]),
            toks(&["c", "c"]),
            vec![],
            toks(&["b", "a", "b"]),
        ];
        let seen = Mutex::new(Vec::new());
        let rule = |g: usize, spans: &[(u32, u32)]| {
            let mut seen = seen.lock().unwrap();
            seen.push((g, spans.to_vec()));
            [g as u32, spans.len() as u32]
        };
        for threads in [1, 3] {
            seen.lock().unwrap().clear();
            let mut b =
                SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc)
                    .with_threads(threads);
            let plain = b.add_relation(groups.clone());
            let h = b.add_groups_capped(
                TokenGroups::Tokenized(groups.clone()),
                NormKind::Cardinality,
                &rule,
            );
            let built = b.build().unwrap();
            assert_eq!(built.prefix_caps(plain), None);
            let (r_caps, s_caps) = built.prefix_caps(h).unwrap();
            assert_eq!(r_caps, [0, 1, 2, 3]);
            assert_eq!(s_caps, [5, 2, 0, 3]);
            let mut seen = seen.lock().unwrap();
            seen.sort();
            assert_eq!(seen.len(), groups.len());
            for (g, spans) in seen.iter() {
                let set = built.collection(h).set(*g as u32);
                let want: Vec<(u32, u32)> = set
                    .ranks()
                    .iter()
                    .map(|&rank| {
                        let (token, ord) = built.element(rank);
                        let at: Vec<u32> = (0u32..)
                            .zip(&groups[*g])
                            .filter(|(_, t)| t.as_str() == token)
                            .map(|(i, _)| i)
                            .collect();
                        (at[0], at[ord as usize - 1])
                    })
                    .collect();
                assert_eq!(spans, &want, "group {g} threads {threads}");
            }
        }
    }

    #[test]
    fn multiset_ordinalization() {
        // {x, x} vs {x}: multiset overlap is 1, not 2.
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![toks(&["x", "x"]), toks(&["x"])]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        assert_eq!(c.set(0).len(), 2); // (x,1), (x,2)
        assert_eq!(c.set(0).overlap(c.set(1)), Weight::ONE);
        assert_eq!(c.universe_size(), 2);
    }

    #[test]
    fn shared_universe_across_relations() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let r = b.add_relation(vec![toks(&["p", "q"])]);
        let s = b.add_relation(vec![toks(&["q", "z"])]);
        let built = b.build().unwrap();
        let overlap = built
            .collection(r)
            .set(0)
            .overlap(built.collection(s).set(0));
        assert_eq!(overlap, Weight::ONE); // shared "q"
    }

    #[test]
    fn idf_weights_rare_tokens_heavier() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        // "the" in all 4 groups, "zyx" in one.
        let h = b.add_relation(vec![
            toks(&["the", "zyx"]),
            toks(&["the", "b"]),
            toks(&["the", "c"]),
            toks(&["the", "d"]),
        ]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        // Under FrequencyAsc the rare elements come first; "the" (freq 4) is
        // the last rank.
        let last_rank = (built.universe_size() - 1) as u32;
        let (token, _) = built.element(last_rank);
        assert_eq!(token, "the");
        // IDF: ln(1 + 4/4) < ln(1 + 4/1).
        let w_the = built.element_weight(last_rank);
        let w_rare = built.element_weight(0);
        assert!(w_rare > w_the, "rare {w_rare} vs common {w_the}");
        // Norms default to total weight.
        let s0 = c.set(0);
        assert!((s0.norm() - s0.total_weight().to_f64()).abs() < 1e-9);
    }

    #[test]
    fn frequency_order_places_rare_first() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![
            toks(&["common", "rare1"]),
            toks(&["common", "rare2"]),
            toks(&["common"]),
        ]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        // In every set containing it, "common" (freq 3) must sort after the
        // rare tokens (freq 1), i.e. have the largest rank.
        let (token, _) = built.element((built.universe_size() - 1) as u32);
        assert_eq!(token, "common");
        for set in c.iter() {
            assert!(set.ranks().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn norm_kinds() {
        let groups = vec![toks(&["a", "a", "b"])];
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let card = b.add_relation_with_norm(groups.clone(), NormKind::Cardinality);
        let custom = b.add_relation_with_norm(groups.clone(), NormKind::Custom(vec![42.0]));
        let total = b.add_relation_with_norm(groups, NormKind::TotalWeight);
        let built = b.build().unwrap();
        assert_eq!(built.collection(card).set(0).norm(), 3.0);
        assert_eq!(built.collection(custom).set(0).norm(), 42.0);
        assert_eq!(built.collection(total).set(0).norm(), 3.0); // unit weights
    }

    #[test]
    fn custom_norm_arity_checked() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation_with_norm(vec![toks(&["a"])], NormKind::Custom(vec![1.0, 2.0]));
        let err = b.build().unwrap_err();
        assert!(
            matches!(&err, SsJoinError::InvalidInput(m) if m.contains("one value per group")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_groups_and_relations() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![vec![], toks(&["only"])]);
        let e = b.add_relation(vec![]);
        let built = b.build().unwrap();
        assert_eq!(built.collection(h).set(0).len(), 0);
        assert_eq!(built.collection(h).set(1).len(), 1);
        assert!(built.collection(e).is_empty());
    }

    #[test]
    fn query_encoder_round_trips_known_tokens() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![
            toks(&["a", "b", "b", "c"]),
            toks(&["b", "c"]),
            toks(&["a", "d"]),
        ]);
        let built = b.build().unwrap();
        let enc = built.query_encoder();
        assert_eq!(enc.universe_size(), built.universe_size());
        // Re-encoding the original groups reproduces the built sets exactly
        // (same ranks, same weights, same norms).
        let groups = vec![toks(&["a", "b", "b", "c"]), toks(&["b", "c"])];
        let again = enc.encode(&groups, NormKind::TotalWeight).unwrap();
        let c = built.collection(h);
        assert!(c.shares_universe(&again));
        for (i, set) in again.iter().enumerate() {
            let orig = c.set(i as u32);
            assert_eq!(set.ranks(), orig.ranks());
            assert_eq!(set.weights(), orig.weights());
            assert!((set.norm() - orig.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn query_encoder_drops_unseen_tokens() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation(vec![toks(&["a", "b"])]);
        let built = b.build().unwrap();
        let enc = built.query_encoder();
        // "z" was never interned; second occurrence of "a" was never seen.
        let coll = enc
            .encode(&[toks(&["a", "z", "a"])], NormKind::Cardinality)
            .unwrap();
        assert_eq!(coll.set(0).len(), 1); // only (a, 1) survives
        assert_eq!(coll.set(0).norm(), 3.0); // cardinality counts all tokens
        assert_eq!(enc.rank_of("z", 1), None);
        assert_eq!(enc.rank_of("a", 2), None);
        assert!(enc.rank_of("a", 1).is_some());
    }

    #[test]
    fn query_encoder_custom_norm_arity_checked() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation(vec![toks(&["a"])]);
        let enc = b.build().unwrap().query_encoder();
        let err = enc
            .encode(&[toks(&["a"])], NormKind::Custom(vec![1.0, 2.0]))
            .unwrap_err();
        assert!(matches!(err, SsJoinError::InvalidInput(_)), "{err:?}");
    }

    /// A self-join built as one relation equals the two-copy build bit for
    /// bit: doubling every group count leaves `N / f` exact (so IDF weights
    /// and norms) and keeps the `(freq, first-seen id)` order.
    #[test]
    fn one_relation_builds_like_two_copies() {
        let g = vec![
            toks(&["main", "st", "100", "seattle"]),
            toks(&["main", "street", "100", "seattle"]),
            toks(&["oak", "ave", "oak", "7"]),
            toks(&["main", "st"]),
            vec![],
            toks(&["zyx", "ave", "seattle", "wa", "wa"]),
        ];
        for scheme in [
            WeightScheme::Idf,
            WeightScheme::IdfSquared,
            WeightScheme::Unweighted,
        ] {
            for norm in [NormKind::TotalWeight, NormKind::SqrtTotalWeight] {
                let mut one = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
                let h = one.add_relation_with_norm(g.clone(), norm.clone());
                let one = one.build().unwrap();
                let mut two = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
                let hr = two.add_relation_with_norm(g.clone(), norm.clone());
                let hs = two.add_relation_with_norm(g.clone(), norm.clone());
                let two = two.build().unwrap();
                assert_eq!(one.universe_size(), two.universe_size());
                for rank in 0..one.universe_size() as u32 {
                    assert_eq!(
                        one.element(rank),
                        two.element(rank),
                        "{scheme:?} rank {rank}"
                    );
                    assert_eq!(
                        one.element_weight(rank).raw(),
                        two.element_weight(rank).raw(),
                        "{scheme:?} rank {rank}"
                    );
                }
                for other in [hr, hs] {
                    let (a, b) = (one.collection(h), two.collection(other));
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b.iter()) {
                        assert_eq!(x.ranks(), y.ranks(), "{scheme:?} {norm:?}");
                        assert_eq!(x.weights(), y.weights(), "{scheme:?} {norm:?}");
                        assert_eq!(
                            x.norm().to_bits(),
                            y.norm().to_bits(),
                            "{scheme:?} {norm:?}"
                        );
                    }
                }
            }
        }
    }

    /// `a` and `b` are the same build: universe, `(token, ordinal)` and
    /// weight per rank, and every set's ranks, weights and norm bits.
    fn assert_same_build(a: &BuiltInput, b: &BuiltInput, what: &str) {
        assert_eq!(a.universe_size(), b.universe_size(), "{what}");
        for rank in 0..a.universe_size() as u32 {
            assert_eq!(a.element(rank), b.element(rank), "{what} rank {rank}");
            assert_eq!(
                a.element_weight(rank).raw(),
                b.element_weight(rank).raw(),
                "{what} rank {rank}"
            );
        }
        assert_eq!(a.collections().len(), b.collections().len(), "{what}");
        for (x, y) in a.collections().iter().zip(b.collections()) {
            assert_eq!(x.len(), y.len(), "{what}");
            assert_eq!(x.norm_range(), y.norm_range(), "{what}");
            for (i, (p, q)) in x.iter().zip(y.iter()).enumerate() {
                assert_eq!(p.ranks(), q.ranks(), "{what} set {i}");
                assert_eq!(p.weights(), q.weights(), "{what} set {i}");
                assert_eq!(p.norm().to_bits(), q.norm().to_bits(), "{what} set {i}");
            }
        }
    }

    /// The build as it stood before chunked interning — one sequential
    /// pass interning through one `HashMap<String, u32>` and one
    /// `(token, ordinal)` map, then `SetCollection::from_sets` — kept as the
    /// oracle the chunked build must reproduce.
    fn sequential_build(
        relations: &[Vec<Vec<String>>],
        scheme: WeightScheme,
        order_by: ElementOrder,
        norm: &NormKind,
    ) -> BuiltInput {
        use std::collections::HashMap;
        let mut token_ids: HashMap<&str, u32> = HashMap::new();
        let mut element_ids: HashMap<(u32, u32), u32> = HashMap::new();
        let mut tokens: Vec<&str> = Vec::new();
        let (mut elements, mut element_freq, mut token_freq) = (Vec::new(), Vec::new(), Vec::new());
        let mut rel_groups: Vec<Vec<Vec<u32>>> = Vec::new();
        for rel in relations {
            let mut groups_out = Vec::new();
            for group in rel {
                let mut occurrence: HashMap<u32, u32> = HashMap::new();
                let mut eids = Vec::new();
                for token in group {
                    let tid = *token_ids.entry(token).or_insert_with(|| {
                        tokens.push(token);
                        token_freq.push(0usize);
                        tokens.len() as u32 - 1
                    });
                    let ord = occurrence.entry(tid).or_insert(0);
                    *ord += 1;
                    if *ord == 1 {
                        token_freq[tid as usize] += 1;
                    }
                    let eid = *element_ids.entry((tid, *ord)).or_insert_with(|| {
                        elements.push((tid, *ord));
                        element_freq.push(0usize);
                        elements.len() as u32 - 1
                    });
                    element_freq[eid as usize] += 1;
                    eids.push(eid);
                }
                groups_out.push(eids);
            }
            rel_groups.push(groups_out);
        }
        let n = relations.iter().map(Vec::len).sum::<usize>() as f64;
        let weights: Vec<Weight> = elements
            .iter()
            .map(|&(tid, _)| {
                let idf = (1.0 + n / token_freq[tid as usize] as f64).ln();
                match scheme {
                    WeightScheme::Unweighted => Weight::ONE,
                    WeightScheme::Idf => Weight::from_f64(idf),
                    WeightScheme::IdfSquared => Weight::from_f64(idf * idf),
                }
            })
            .collect();
        let mut order: Vec<u32> = (0..elements.len() as u32).collect();
        order.sort_unstable_by_key(|&eid| {
            let token = || tokens[elements[eid as usize].0 as usize];
            order_by.sort_key(element_freq[eid as usize], token, eid as u64)
        });
        let mut rank_of = vec![0u32; elements.len()];
        let mut weights_by_rank = vec![Weight::ZERO; elements.len()];
        for (rank, &eid) in order.iter().enumerate() {
            rank_of[eid as usize] = rank as u32;
            weights_by_rank[rank] = weights[eid as usize];
        }
        let mut meta = ElementMeta::new(tokens.iter().copied()).unwrap();
        meta.place(&elements, &rank_of);
        let table = (scheme != WeightScheme::Unweighted).then(|| Arc::new(weights_by_rank));
        let collections = rel_groups
            .iter()
            .map(|groups| {
                let sets = groups
                    .iter()
                    .enumerate()
                    .map(|(g, eids)| {
                        let ranks: Vec<u32> = eids.iter().map(|&e| rank_of[e as usize]).collect();
                        let norm = norm.of(g, eids.iter().map(|&e| weights[e as usize]));
                        (ranks, norm)
                    })
                    .collect();
                SetCollection::from_sets(sets, elements.len(), 0, table.clone()).unwrap()
            })
            .collect();
        BuiltInput {
            collections,
            meta,
            weights: table,
            prefix_caps: vec![None; relations.len()],
        }
    }

    /// Rows tokenized and interned on 1, 2, 3 and 8 workers — and the same
    /// rows pre-tokenized into `Vec<Vec<String>>` — build exactly what the
    /// pre-chunking sequential build does: same ranks, `element()`,
    /// `Weight::raw` and norm bits, under every weight scheme and element
    /// order, as one relation (a self-join) and as two. The shapes cover no
    /// rows, more workers than rows, empty and all-delimiter rows, repeated
    /// tokens (ordinal > 1), non-ASCII rows and a single-token universe; a
    /// seeded corpus makes every chunk merge meet tokens first seen in
    /// earlier chunks. The key boundaries are covered too: tokens of 15, 16
    /// and 17 bytes, a two-byte character ending at byte 15 and one
    /// straddling it, a long token repeated in a group and first seen in a
    /// later chunk, and pre-tokenized groups holding both `"a"` and `"a\0"`.
    #[test]
    fn chunked_build_is_the_same_at_every_thread_count() {
        use ssjoin_prng::{Rng, StdRng};
        use ssjoin_text::{QGramTokenizer, Tokenizer, WordTokenizer};

        let rows = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let mut rng = StdRng::seed_from_u64(0xB1D);
        const VOCAB: &[&str] = &[
            "main",
            "St",
            "ave",
            "oak",
            "100",
            "7",
            "café",
            "wa",
            "İstanbul",
        ];
        let seeded: Vec<String> = (0..200)
            .map(|_| {
                let n = rng.gen_index(7);
                let words: Vec<&str> = (0..n).map(|_| VOCAB[rng.gen_index(VOCAB.len())]).collect();
                words.join(if rng.gen_bool(0.2) { " , " } else { " " })
            })
            .collect();
        // 15, 16 and 17 bytes; 13 ASCII bytes + `é` (15 bytes, inline);
        // 14 ASCII bytes + `é` (16 bytes, `é` straddling byte 15); and an
        // 18-byte token first seen in the last rows, three times in a group.
        let (t15, t16, t17) = ("fifteenbytes015", "sixteenbytes0016", "seventeenbytes017");
        let (e15, e16, late) = ("thirteenbytesé", "fourteenbytes1é", "latecomerlongtoken");
        assert_eq!(
            [t15, t16, t17, e15, e16, late].map(str::len),
            [15, 16, 17, 15, 16, 18]
        );
        let boundaries: Vec<String> = [
            format!("{t15} main"),
            format!("{t16} st"),
            format!("{t17} {t15}"),
            format!("{e16} {e15}"),
            "main st".into(),
            "oak".into(),
            format!("{late} main {late} {late}"),
            format!("{t16} {t16} {t17}"),
            late.into(),
            format!("{e16} {e16} {e15}"),
        ]
        .into();
        let shapes: Vec<(&str, Vec<String>)> = vec![
            ("no rows", Vec::new()),
            ("two rows", rows(&["main st", "main  st 100"])),
            (
                "empty and delimiter rows",
                rows(&["", "  ,.; ", "a", "", "--"]),
            ),
            (
                "repeated tokens",
                rows(&["wa wa wa", "oak ave oak 7", "wa", "7 7 oak oak"]),
            ),
            (
                "non-ascii",
                rows(&["Café Straße", "İstanbul CAFÉ", "STRASSE", "café"]),
            ),
            ("single token", rows(&["x", "x", "X x", "x"])),
            ("key boundaries", boundaries),
            ("seeded", seeded),
        ];
        let words = WordTokenizer::new().lowercased();
        let qgrams = QGramTokenizer::new(3);
        let tokenizers: [(&(dyn Tokenizer + Sync), NormKind); 3] = [
            (&words, NormKind::TotalWeight),
            (&words, NormKind::SqrtTotalWeight),
            (&qgrams, NormKind::Cardinality),
        ];
        // Groups that only a pre-tokenized relation can hold: a token and
        // its NUL-extended twin, inline (`a`, `a\0`) and across the 15-byte
        // boundary.
        let nul: Vec<Vec<String>> = vec![
            toks(&["a", "a\0", "a"]),
            toks(&["a\0"]),
            toks(&[t15, "a", &format!("{t15}\0")]),
            toks(&["a"]),
            toks(&["a\0", "a\0", &format!("{t15}\0"), t15]),
        ];
        // Each case: its name, its relations' groups, its norm, and — when
        // built from rows too — the rows per relation and their tokenizer.
        type Relations = Vec<Vec<Vec<String>>>;
        type Rows<'r> = Option<(Vec<&'r [String]>, &'r (dyn Tokenizer + Sync))>;
        let mut cases: Vec<(&str, Relations, &NormKind, Rows<'_>)> = Vec::new();
        for (shape, data) in &shapes {
            let half = &data[..data.len() / 2];
            for (tok, norm) in &tokenizers {
                for sides in [vec![&data[..]], vec![&data[..], half]] {
                    let grouped = sides
                        .iter()
                        .map(|side| side.iter().map(|x| tok.tokenize(x)).collect())
                        .collect();
                    cases.push((shape, grouped, norm, Some((sides, *tok))));
                }
            }
        }
        let total = NormKind::TotalWeight;
        cases.push(("nul twins", vec![nul.clone()], &total, None));
        cases.push((
            "nul twins",
            vec![nul.clone(), nul[1..].to_vec()],
            &total,
            None,
        ));
        let schemes = [
            WeightScheme::Idf,
            WeightScheme::IdfSquared,
            WeightScheme::Unweighted,
        ];
        let orders = [
            ElementOrder::FrequencyAsc,
            ElementOrder::FrequencyDesc,
            ElementOrder::Lexicographic,
            ElementOrder::Hashed,
        ];
        for (shape, grouped, norm, rows) in &cases {
            for scheme in schemes {
                for order in orders {
                    let oracle = sequential_build(grouped, scheme, order, norm);
                    for threads in [1, 2, 3, 8] {
                        let what = format!(
                            "{shape}, {} sides, {scheme:?}, {order:?}, {norm:?}, {threads} threads",
                            grouped.len()
                        );
                        let builder =
                            || SsJoinInputBuilder::new(scheme, order).with_threads(threads);
                        let mut groups = builder();
                        for g in grouped {
                            groups.add_relation_with_norm(g.clone(), (*norm).clone());
                        }
                        assert_same_build(&groups.build().unwrap(), &oracle, &what);
                        if let Some((sides, tokenizer)) = rows {
                            let mut text = builder();
                            for side in sides {
                                let rows = TokenGroups::Text {
                                    rows: side,
                                    tokenizer: *tokenizer,
                                    order: None,
                                };
                                text.add_groups(rows, (*norm).clone());
                            }
                            assert_same_build(&text.build().unwrap(), &oracle, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_builds_have_distinct_tags() {
        let build = || {
            let mut b =
                SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
            let h = b.add_relation(vec![toks(&["a"])]);
            let built = b.build().unwrap();
            built.collection(h).clone()
        };
        let c1 = build();
        let c2 = build();
        assert_ne!(c1.universe_tag(), c2.universe_tag());
    }
}
