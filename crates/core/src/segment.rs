//! Segments (§3.4): the message that carries holdings between ranks, and
//! the selection of what the ring exchange ships.
//!
//! "The processors in a group divide their components into segments and
//! exchange the segments. The segments are formed such that a processor
//! will be able to accommodate at least one segment it receives from
//! another processor in addition to the segments that it contains."
//!
//! A segment carries roughly half of the holder's raw bytes, additionally
//! capped so the segment's (paper-scale) bytes fit within the receiver's
//! guaranteed headroom. Which components make up that half is a
//! bin-packing choice: [`choose_segment`] packs best-fit decreasing,
//! filling the budget with the heaviest components first. On skewed
//! holdings that moves the hub components immediately instead of trickling
//! leaves, so groups converge in fewer ring rounds than under a first-fit
//! walk (kept in this module's tests as the baseline).

use mnd_kernels::cgraph::{CEdge, CGraph, CompId};
use mnd_net::Wire;
use mnd_wire::pack::{delta_cost, varint_bytes};

/// A row in its raw layout: two component ends and the original
/// `(u, v, w)`, five 4-byte words.
const RAW_ROW_BYTES: u64 = std::mem::size_of::<CEdge>() as u64;

/// A holding in flight between two ranks — a ring segment, a member's
/// share of a group merge, a checkpoint: resident components, their rows
/// (a ring segment's boundary rows are copies — see `CGraph::split_off`),
/// and the frozen marks that travel along.
///
/// Wire layout (modelled, in `mnd_wire::pack`'s convention: the size is
/// computed once when the message is built and decoding is a move). An
/// empty message is 0 bytes. Otherwise three columns — resident ids, rows,
/// frozen ids — each a format flag byte, `varint(len)` and the smaller of
/// a raw and a packed body:
///
/// * **ids**: raw 4-byte ids, or delta varints when ascending (resident
///   and frozen columns always are);
/// * **rows**: raw 20-byte rows, or per row the weight as a varint — its
///   delta from the previous row's when a sweep finds the column ascending
///   in `w` (every reduced holding), absolute otherwise (a level-0 holding
///   in anchor order) — then `varint(u)`, `varint(v − u)` and one flag
///   byte saying whether each of `a` and `b` equals `u` or `v`; an end
///   that equals neither follows as a varint.
///
/// The length is written in both layouts so that the three columns of one
/// message stay decodable; the reference decoder in this module's tests
/// inverts the layout at exactly the charged size.
#[derive(Clone, Debug)]
pub struct SegmentMsg {
    /// Component ids moving to the receiver.
    resident: Vec<CompId>,
    /// Edges incident to those components.
    edges: Vec<CEdge>,
    /// Frozen subset of `resident`.
    frozen: Vec<CompId>,
    /// The modelled wire size, computed at construction.
    wire: u64,
}

impl SegmentMsg {
    /// Builds a message from a holding's three columns: resident ids, rows
    /// and frozen marks.
    pub fn new(resident: Vec<CompId>, edges: Vec<CEdge>, frozen: Vec<CompId>) -> Self {
        let wire = if resident.is_empty() && edges.is_empty() && frozen.is_empty() {
            0
        } else {
            ids_bytes(&resident) + rows_bytes(&edges) + ids_bytes(&frozen)
        };
        SegmentMsg {
            resident,
            edges,
            frozen,
            wire,
        }
    }

    /// An empty segment (sent by converged/empty holders so the ring stays
    /// in lockstep).
    pub fn empty() -> Self {
        SegmentMsg::new(Vec::new(), Vec::new(), Vec::new())
    }

    /// True if nothing moves.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Converts a split-off holding into a message.
    pub fn from_holding(cg: CGraph) -> Self {
        // Destructure via accessors (CGraph fields are private).
        SegmentMsg::new(cg.resident().to_vec(), cg.edges_vec(), cg.frozen().to_vec())
    }

    /// Converts back into a holding at the receiver.
    pub fn into_holding(self) -> CGraph {
        let mut resident = self.resident;
        resident.sort_unstable();
        resident.dedup();
        CGraph::from_parts(resident, self.edges, self.frozen)
    }
}

impl Wire for SegmentMsg {
    /// The packed layout's size, computed when the message was built:
    /// `Comm::send` charges exactly this.
    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.wire
    }
}

/// A column's charge: the format flag, `varint(len)`, and the smaller of
/// the raw body and the packed one (`None`: the packed layout does not
/// apply).
fn column_bytes(len: usize, raw: u64, packed: Option<u64>) -> u64 {
    1 + varint_bytes(len as u64) + packed.map_or(raw, |p| p.min(raw))
}

/// An ids column: raw 4-byte ids, or delta varints when ascending.
fn ids_bytes(ids: &[CompId]) -> u64 {
    column_bytes(ids.len(), 4 * ids.len() as u64, delta_cost(ids))
}

/// A rows column (see [`SegmentMsg`]'s layout).
fn rows_bytes(edges: &[CEdge]) -> u64 {
    let raw = RAW_ROW_BYTES * edges.len() as u64;
    column_bytes(edges.len(), raw, packed_rows_body(edges))
}

/// The packed rows body, or `None` where it does not apply (an original
/// edge with `u > v`).
fn packed_rows_body(edges: &[CEdge]) -> Option<u64> {
    let ascending = edges.windows(2).all(|p| p[0].orig.w <= p[1].orig.w);
    let mut bytes = 0u64;
    let mut prev_w = 0u32;
    for e in edges {
        let (u, v, w) = (e.orig.u, e.orig.v, e.orig.w);
        let weight = if ascending { w - prev_w } else { w };
        prev_w = w;
        bytes += varint_bytes(weight.into()) + varint_bytes(u.into());
        bytes += varint_bytes(v.checked_sub(u)?.into()) + 1;
        for end in [e.a, e.b] {
            if end != u && end != v {
                bytes += varint_bytes(end.into());
            }
        }
    }
    Some(bytes)
}

/// Picks the components of the next outgoing segment: a subset of the
/// resident components carrying at most half of the holding's raw bytes,
/// capped at `max_bytes`. Components are considered from heaviest to
/// lightest and greedily added while they fit the budget (best-fit
/// decreasing), so each round ships the fullest segment the cap allows.
/// The holder always keeps at least one component so it still participates
/// in collaborative merging.
///
/// Returns an empty vector when the holder has fewer than 2 components
/// (nothing sensible to send).
///
/// Components are weighed by the bytes they occupy in the **raw layout**
/// of the outgoing [`SegmentMsg`] — resident id + incident edges × 20 B +
/// the frozen mark if present — the in-memory size the `max_bytes` cap (the
/// receiver's headroom) is measured in, and an upper bound of the packed
/// wire charge up to the columns' flag and length bytes. The old
/// incident-*count* weighting under-counted components with frozen marks.
pub fn choose_segment(cg: &mut CGraph, max_bytes: u64) -> Vec<CompId> {
    let n = cg.num_resident();
    if n < 2 {
        return Vec::new();
    }
    let (weights, target) = segment_weights(cg, max_bytes);
    let resident = cg.resident();
    // Heaviest-first greedy packing; ties broken by id so the choice is
    // deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        weights[b]
            .cmp(&weights[a])
            .then(resident[a].cmp(&resident[b]))
    });
    let mut acc = 0u64;
    let mut take = Vec::new();
    for &i in &order {
        if take.len() + 1 == n || acc >= target {
            break;
        }
        if acc + weights[i] <= target {
            take.push(resident[i]);
            acc += weights[i];
        }
    }
    if take.is_empty() {
        // Every single component overshoots the budget: send the lightest
        // one anyway (minimal overshoot, and the segment still makes
        // progress).
        if let Some(&i) = order.last() {
            take.push(resident[i]);
        }
    }
    take.sort_unstable();
    take
}

/// Each resident component's raw weight (index-aligned with the resident
/// column) and the segment's byte budget: half the holding, at most
/// `max_bytes`, at least 1.
fn segment_weights(cg: &mut CGraph, max_bytes: u64) -> (Vec<u64>, u64) {
    let frozen = cg.frozen_marks();
    let edge_bytes = std::mem::size_of::<CEdge>() as u64;
    let id_bytes = std::mem::size_of::<CompId>() as u64;
    let weights: Vec<u64> = cg
        .incident_counts()
        .iter()
        .zip(&frozen)
        .map(|(&cnt, &is_frozen)| {
            let mark = if is_frozen { id_bytes } else { 0 };
            id_bytes + cnt * edge_bytes + mark
        })
        .collect();
    let total: u64 = weights.iter().sum();
    (weights, (total / 2).min(max_bytes).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;
    use mnd_graph::partition::VertexRange;
    use mnd_kernels::policy::with_kernel_threads;

    fn holding(seed: u64) -> CGraph {
        CGraph::from_edge_list(&gen::gnm(100, 500, seed))
    }

    /// The baseline packing: the suffix of the resident list (highest ids
    /// first) until the byte budget fills, oblivious to component sizes —
    /// a heavy hub at a low id never moves until everything above it has.
    /// The first component is taken unconditionally so the segment always
    /// makes progress.
    fn first_fit(cg: &mut CGraph, max_bytes: u64) -> Vec<CompId> {
        let n = cg.num_resident();
        if n < 2 {
            return Vec::new();
        }
        let (weights, target) = segment_weights(cg, max_bytes);
        let resident = cg.resident();
        let (mut acc, mut take) = (0u64, Vec::new());
        for i in (1..n).rev() {
            let w = weights[i];
            if !take.is_empty() && acc + w > target {
                break;
            }
            take.push(resident[i]);
            acc += w;
            if acc >= target {
                break;
            }
        }
        take.sort_unstable();
        take
    }

    /// Both packings, by name, for the properties they share.
    type Packing = fn(&mut CGraph, u64) -> Vec<CompId>;
    const PACKINGS: [(&str, Packing); 2] = [("first-fit", first_fit), ("best-fit", choose_segment)];

    #[test]
    fn segment_round_trips_through_message() {
        let mut cg = holding(1);
        let take = choose_segment(&mut cg, u64::MAX);
        assert!(!take.is_empty());
        let seg = cg.split_off(&take);
        let before = seg.clone();
        let msg = SegmentMsg::from_holding(seg);
        assert!(msg.wire_bytes() > 0);
        let back = msg.into_holding();
        assert_eq!(back, before);
    }

    #[test]
    fn segment_takes_roughly_half_edges() {
        for (name, pack) in PACKINGS {
            let mut cg = holding(2);
            let take = pack(&mut cg, u64::MAX);
            let frac = take.len() as f64 / cg.num_resident() as f64;
            assert!((0.15..0.85).contains(&frac), "{name} fraction {frac}");
        }
    }

    #[test]
    fn best_fit_needs_no_more_components_than_first_fit() {
        let mut cg = holding(2);
        let ff = first_fit(&mut cg, u64::MAX);
        let bfd = choose_segment(&mut cg, u64::MAX);
        // Both fill the same edge target; BFD does it with the heaviest
        // components, so it never needs more of them.
        assert!(bfd.len() <= ff.len(), "bfd {} > ff {}", bfd.len(), ff.len());
    }

    #[test]
    fn best_fit_ships_the_hub_of_a_star() {
        // Hub component 0 touches ten leaves: counts are 10, 1, 1, ...
        // (total 20, target 10). BFD ships the hub alone; the suffix walk
        // trickles every leaf instead.
        let edges: Vec<CEdge> = (1..=10u32)
            .map(|k| CEdge::new(0, k, mnd_graph::WEdge::new(0, k, k)))
            .collect();
        let resident: Vec<CompId> = (0..=10).collect();
        let mut cg = CGraph::from_parts(resident, edges, vec![]);
        let bfd = choose_segment(&mut cg, u64::MAX);
        assert_eq!(bfd, vec![0]);
        let ff = first_fit(&mut cg, u64::MAX);
        // The suffix walk trickles leaves until the byte budget fills (it
        // stops one leaf short of half the holding's bytes, never touching
        // the hub).
        assert!(!ff.contains(&0), "first-fit must miss the hub: {ff:?}");
        assert_eq!(ff.len(), 9, "first-fit trickles the leaves: {ff:?}");
    }

    #[test]
    fn frozen_marks_count_toward_segment_weight() {
        // Components 1 and 2 have identical edge counts (one boundary edge
        // each); freezing 2 makes it strictly heavier on the wire, so BFD
        // must ship it first — under count weighting the id tiebreak would
        // pick 1.
        let edges = vec![
            CEdge::new(1, 7, mnd_graph::WEdge::new(1, 7, 1)),
            CEdge::new(2, 8, mnd_graph::WEdge::new(2, 8, 2)),
        ];
        let mut cg = CGraph::from_parts(vec![1, 2, 3], edges, vec![2]);
        let bfd = choose_segment(&mut cg, u64::MAX);
        assert_eq!(bfd, vec![2], "the frozen component weighs more: {bfd:?}");
    }

    #[test]
    fn byte_cap_limits_segment() {
        let mut cg = holding(3);
        let small = choose_segment(&mut cg, 200); // ~10 edges worth
        let large = choose_segment(&mut cg, u64::MAX);
        assert!(small.len() <= large.len());
        assert!(!small.is_empty());
    }

    #[test]
    fn holder_always_keeps_a_component() {
        for (_, pack) in PACKINGS {
            let mut cg = holding(4);
            let take = pack(&mut cg, u64::MAX);
            assert!(take.len() < cg.num_resident());
        }
    }

    /// `split_off` refuses a component that is not resident; the only
    /// production caller hands it what `choose_segment` picked, which
    /// indexes the resident column and nothing else. Holdings with ghost
    /// ends, frozen marks, edgeless residents and a binding cap, both
    /// packings: every pick is a resident, none twice, never all of them.
    #[test]
    fn a_segment_names_resident_components_only() {
        for seed in 0..6 {
            let mut cg = holding(seed);
            // Every third component is somebody else's: rows with one and
            // two ghost ends; some residents lose all their rows.
            let resident: Vec<CompId> = cg.resident().iter().copied().step_by(3).collect();
            cg.set_resident(resident.clone());
            cg.set_frozen(resident.iter().copied().step_by(5).collect());
            for (_, pack) in PACKINGS {
                for cap in [1, 200, u64::MAX] {
                    let take = with_kernel_threads(1, || pack(&mut cg, cap));
                    assert!(take.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
                    assert!(take.iter().all(|&c| cg.is_resident(c)), "{take:?}");
                    assert!(take.len() < cg.num_resident());
                    let seg = cg.clone().split_off(&take);
                    assert_eq!(seg.resident(), &take[..]);
                }
            }
        }
    }

    #[test]
    fn tiny_holdings_send_nothing() {
        let mut cg = CGraph::from_parts(vec![7], vec![], vec![]);
        assert!(choose_segment(&mut cg, u64::MAX).is_empty());
        assert!(choose_segment(&mut CGraph::new(), u64::MAX).is_empty());
    }

    /// LEB128 as a real serializer would emit it.
    fn leb128(mut v: u64, out: &mut Vec<u8>) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    fn read_leb128(bytes: &[u8], at: &mut usize) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let byte = bytes[*at];
            *at += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    fn read_u32(bytes: &[u8], at: &mut usize) -> u32 {
        let word = u32::from_le_bytes(bytes[*at..*at + 4].try_into().unwrap());
        *at += 4;
        word
    }

    /// Column format flags of the reference layout.
    const RAW: u8 = 0;
    const DELTA: u8 = 1;
    const ABSOLUTE: u8 = 2;

    /// Row flag: how one end is written (two bits per end).
    const END_IS_U: u8 = 0;
    const END_IS_V: u8 = 1;
    const END_FOLLOWS: u8 = 2;

    /// The reference encoder: a column's flag, its length, then the
    /// smaller of the raw and the packed body (packed on a tie).
    fn put_column(flag: u8, len: usize, raw: Vec<u8>, packed: Option<Vec<u8>>, out: &mut Vec<u8>) {
        let (flag, body) = match packed {
            Some(p) if p.len() <= raw.len() => (flag, p),
            _ => (RAW, raw),
        };
        out.push(flag);
        leb128(len as u64, out);
        out.extend(body);
    }

    fn put_ids(ids: &[CompId], out: &mut Vec<u8>) {
        let raw = ids.iter().flat_map(|id| id.to_le_bytes()).collect();
        let packed = ids.windows(2).all(|w| w[0] <= w[1]).then(|| {
            let mut body = Vec::new();
            let mut prev = 0;
            for &id in ids {
                leb128(u64::from(id - prev), &mut body);
                prev = id;
            }
            body
        });
        put_column(DELTA, ids.len(), raw, packed, out);
    }

    fn put_rows(edges: &[CEdge], out: &mut Vec<u8>) {
        let raw = edges
            .iter()
            .flat_map(|e| [e.a, e.b, e.orig.u, e.orig.v, e.orig.w])
            .flat_map(u32::to_le_bytes)
            .collect();
        let ascending = edges.windows(2).all(|p| p[0].orig.w <= p[1].orig.w);
        let packed = edges.iter().all(|e| e.orig.u <= e.orig.v).then(|| {
            let mut body = Vec::new();
            let mut prev = 0;
            for e in edges {
                let (u, v, w) = (e.orig.u, e.orig.v, e.orig.w);
                leb128(u64::from(if ascending { w - prev } else { w }), &mut body);
                prev = w;
                leb128(u64::from(u), &mut body);
                leb128(u64::from(v - u), &mut body);
                let how = |end: CompId| match end {
                    _ if end == u => END_IS_U,
                    _ if end == v => END_IS_V,
                    _ => END_FOLLOWS,
                };
                body.push(how(e.a) | how(e.b) << 2);
                for end in [e.a, e.b] {
                    if how(end) == END_FOLLOWS {
                        leb128(u64::from(end), &mut body);
                    }
                }
            }
            body
        });
        let flag = if ascending { DELTA } else { ABSOLUTE };
        put_column(flag, edges.len(), raw, packed, out);
    }

    fn encode(msg: &SegmentMsg) -> Vec<u8> {
        let mut out = Vec::new();
        if msg.resident.is_empty() && msg.edges.is_empty() && msg.frozen.is_empty() {
            return out;
        }
        put_ids(&msg.resident, &mut out);
        put_rows(&msg.edges, &mut out);
        put_ids(&msg.frozen, &mut out);
        out
    }

    fn get_ids(bytes: &[u8], at: &mut usize) -> Vec<CompId> {
        let flag = bytes[*at];
        *at += 1;
        let len = read_leb128(bytes, at) as usize;
        let mut prev = 0u32;
        (0..len)
            .map(|_| match flag {
                RAW => read_u32(bytes, at),
                _ => {
                    prev += read_leb128(bytes, at) as u32;
                    prev
                }
            })
            .collect()
    }

    fn get_rows(bytes: &[u8], at: &mut usize) -> Vec<CEdge> {
        let flag = bytes[*at];
        *at += 1;
        let len = read_leb128(bytes, at) as usize;
        let mut prev = 0u32;
        (0..len)
            .map(|_| {
                if flag == RAW {
                    let [a, b, u, v, w] = std::array::from_fn(|_| read_u32(bytes, at));
                    return CEdge {
                        a,
                        b,
                        orig: mnd_graph::WEdge { u, v, w },
                    };
                }
                let mut w = read_leb128(bytes, at) as u32;
                if flag == DELTA {
                    w += prev;
                }
                prev = w;
                let u = read_leb128(bytes, at) as u32;
                let v = u + read_leb128(bytes, at) as u32;
                let how = bytes[*at];
                *at += 1;
                let mut end = |bits: u8| match bits & 3 {
                    END_IS_U => u,
                    END_IS_V => v,
                    _ => read_leb128(bytes, at) as u32,
                };
                let a = end(how);
                let b = end(how >> 2);
                CEdge {
                    a,
                    b,
                    orig: mnd_graph::WEdge { u, v, w },
                }
            })
            .collect()
    }

    /// The reference decoder: inverts [`encode`] and checks it read every
    /// byte.
    fn decode(bytes: &[u8]) -> SegmentMsg {
        if bytes.is_empty() {
            return SegmentMsg::empty();
        }
        let mut at = 0;
        let resident = get_ids(bytes, &mut at);
        let edges = get_rows(bytes, &mut at);
        let frozen = get_ids(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing bytes");
        SegmentMsg::new(resident, edges, frozen)
    }

    /// The modelled size equals the reference encoder's output, and the
    /// reference decoder gives back every column.
    fn assert_reference_round_trip(msg: &SegmentMsg) -> Vec<u8> {
        let bytes = encode(msg);
        assert_eq!(msg.wire_bytes(), bytes.len() as u64, "modelled size");
        let back = decode(&bytes);
        assert_eq!(back.resident, msg.resident);
        assert_eq!(back.edges, msg.edges);
        assert_eq!(back.frozen, msg.frozen);
        assert_eq!(back.wire_bytes(), msg.wire_bytes());
        bytes
    }

    /// Reduced holdings and their segments (rows ascending in `w`, ends
    /// renamed away from `u` and `v`), frozen marks included.
    #[test]
    fn packed_rows_match_the_reference_codec() {
        for seed in 0..4 {
            let mut cg = holding(seed);
            cg.remove_multi_edges();
            assert!(cg.orig_col().windows(2).all(|p| p[0].w <= p[1].w));
            // Rename every id to a multiple of 7 (ends that are neither
            // `u` nor `v`), keeping a few components apart.
            cg.relabel(|c| if c % 5 == 0 { c } else { c / 7 * 7 });
            cg.set_frozen(cg.resident().iter().copied().step_by(3).collect());
            let take = choose_segment(&mut cg, u64::MAX);
            let seg = SegmentMsg::from_holding(cg.split_off(&take));
            let bytes = assert_reference_round_trip(&seg);
            assert_eq!(bytes[0], DELTA, "sorted resident ids pack");
            let whole = SegmentMsg::from_holding(cg);
            assert_reference_round_trip(&whole);
            let raw = RAW_ROW_BYTES * whole.edges.len() as u64;
            assert!(
                whole.wire_bytes() < raw,
                "{} ≥ raw {raw}",
                whole.wire_bytes()
            );
        }
    }

    /// A level-0 holding before its first reduction is in anchor order, not
    /// weight order: weights ship as absolute varints, and both ends of
    /// every row are its original edge's, a flag byte each.
    #[test]
    fn anchor_ordered_rows_ship_absolute_weights() {
        let el = gen::gnm(400, 3000, 9);
        let ranges: Vec<VertexRange> = [0, 150, 260, 400]
            .windows(2)
            .map(|w| VertexRange {
                start: w[0],
                end: w[1],
            })
            .collect();
        for cg in CGraph::level0(&el, &ranges, 0..3) {
            assert!(!cg.orig_col().windows(2).all(|p| p[0].w <= p[1].w));
            let msg = SegmentMsg::from_holding(cg);
            let bytes = assert_reference_round_trip(&msg);
            let mut ids = Vec::new();
            put_ids(&msg.resident, &mut ids);
            assert_eq!(bytes[ids.len()], ABSOLUTE, "rows column flag");
            let rows = msg.edges.len() as u64;
            assert!(msg.wire_bytes() < RAW_ROW_BYTES * rows);
        }
    }

    /// Rows that pack worse than raw — far-apart ends named apart from
    /// their original edge, weights out of order — fall back to 20-byte
    /// rows plus the flag and length; so do the ids of a sparse column.
    #[test]
    fn rows_that_pack_worse_fall_back_to_raw() {
        let far = |i: u32| (i + 1) * 0x1000_0000;
        let edges: Vec<CEdge> = (0..8u32)
            .map(|i| {
                let orig = mnd_graph::WEdge::new(far(i) - 1, far(i) - 1 + far(7 - i), u32::MAX - i);
                CEdge::new(far(i) + 3, far(i) + 5, orig)
            })
            .collect();
        let resident: Vec<CompId> = (0..8).map(far).collect();
        let msg = SegmentMsg::new(resident.clone(), edges.clone(), Vec::new());
        let bytes = assert_reference_round_trip(&msg);
        assert_eq!(bytes[0], RAW, "sparse ids take the raw layout");
        assert_eq!(bytes[2 + 4 * 8], RAW, "rows take the raw layout");
        let ids = 1 + 1 + 4 * 8;
        assert_eq!(
            msg.wire_bytes(),
            ids + (1 + 1 + RAW_ROW_BYTES * 8) + (1 + 1)
        );

        // An original edge with `u > v` has no packed form.
        let flipped = CEdge::new(1, 2, mnd_graph::WEdge { u: 2, v: 1, w: 0 });
        let msg = SegmentMsg::new(vec![1], vec![flipped], Vec::new());
        assert_eq!(assert_reference_round_trip(&msg)[3], RAW);
    }

    #[test]
    fn empty_message_is_empty() {
        let m = SegmentMsg::empty();
        assert!(m.is_empty());
        assert_eq!(m.wire_bytes(), 0);
        assert!(m.into_holding().is_empty());
    }
}
