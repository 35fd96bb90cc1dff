//! Private-set-intersection–style sample alignment (simulated).
//!
//! The paper assumes "the parties have determined and aligned their common
//! samples using private set intersection techniques without revealing any
//! information about samples not in the intersection" (Section III-A). We
//! reproduce the *interface* of that step: each party contributes its
//! sample-id set, the protocol outputs the intersection in a canonical
//! order plus each party's row positions, and non-intersection ids never
//! appear in the output. The cryptographic blinding itself is out of
//! scope: every party runs in one process, and the attacks need only the
//! aligned rows.

use std::collections::HashMap;

/// Result of aligning `m` parties' sample-id sets.
#[derive(Debug, Clone)]
pub struct AlignmentResult {
    /// Intersection ids in ascending order — the canonical joint order.
    pub common_ids: Vec<u64>,
    /// `row_maps[p][k]` = row index in party `p`'s local table holding
    /// `common_ids[k]`.
    pub row_maps: Vec<Vec<usize>>,
}

impl AlignmentResult {
    /// Number of aligned samples.
    pub fn n_common(&self) -> usize {
        self.common_ids.len()
    }
}

/// Computes the sample intersection across parties.
///
/// # Panics
/// Panics if a party presents duplicate ids (ill-formed input — PSI
/// protocols require sets).
pub fn align_samples(party_ids: &[Vec<u64>]) -> AlignmentResult {
    assert!(!party_ids.is_empty(), "need at least one party");
    // Index each party's ids → local row.
    let maps: Vec<HashMap<u64, usize>> = party_ids
        .iter()
        .map(|ids| {
            let mut m = HashMap::with_capacity(ids.len());
            for (row, &id) in ids.iter().enumerate() {
                let prev = m.insert(id, row);
                assert!(prev.is_none(), "duplicate sample id {id} within a party");
            }
            m
        })
        .collect();

    let mut common: Vec<u64> = maps[0]
        .keys()
        .copied()
        .filter(|id| maps[1..].iter().all(|m| m.contains_key(id)))
        .collect();
    common.sort_unstable();

    let row_maps = maps
        .iter()
        .map(|m| common.iter().map(|id| m[id]).collect())
        .collect();

    AlignmentResult {
        common_ids: common,
        row_maps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_and_row_maps() {
        let a = vec![5, 3, 9, 1];
        let b = vec![9, 5, 7];
        let r = align_samples(&[a, b]);
        assert_eq!(r.common_ids, vec![5, 9]);
        assert_eq!(r.n_common(), 2);
        // Party 0: id 5 at row 0, id 9 at row 2.
        assert_eq!(r.row_maps[0], vec![0, 2]);
        // Party 1: id 5 at row 1, id 9 at row 0.
        assert_eq!(r.row_maps[1], vec![1, 0]);
    }

    #[test]
    fn disjoint_sets_yield_empty() {
        let r = align_samples(&[vec![1, 2], vec![3, 4]]);
        assert!(r.common_ids.is_empty());
    }

    #[test]
    fn three_parties() {
        let r = align_samples(&[vec![1, 2, 3, 4], vec![2, 4, 6], vec![4, 2, 0]]);
        assert_eq!(r.common_ids, vec![2, 4]);
        assert_eq!(r.row_maps[2], vec![1, 0]);
    }

    #[test]
    fn non_intersection_ids_never_leak() {
        let r = align_samples(&[vec![1, 2, 99], vec![2, 98]]);
        // Neither 99 nor 98 appears anywhere in the result.
        assert_eq!(r.common_ids, vec![2]);
        for ids in &r.row_maps {
            assert_eq!(ids.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate sample id")]
    fn duplicate_ids_rejected() {
        align_samples(&[vec![1, 1], vec![1]]);
    }
}
