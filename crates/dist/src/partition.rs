//! Contiguous row partitioning across ranks (PETSc's default layout).

/// A rank's contiguous range of global rows, `start..end`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRange {
    /// First owned global row.
    pub start: usize,
    /// One past the last owned global row.
    pub end: usize,
}

impl RowRange {
    /// Number of rows in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether a global index falls in the range.
    pub fn contains(&self, g: usize) -> bool {
        (self.start..self.end).contains(&g)
    }
}

/// Splits `n` rows over `size` ranks as evenly as possible: the first
/// `n % size` ranks get one extra row (PETSc's `PetscSplitOwnership`).
pub fn split_rows(n: usize, size: usize) -> Vec<RowRange> {
    assert!(size > 0);
    let base = n / size;
    let extra = n % size;
    let mut out = Vec::with_capacity(size);
    let mut at = 0;
    for r in 0..size {
        let len = base + usize::from(r < extra);
        out.push(RowRange {
            start: at,
            end: at + len,
        });
        at += len;
    }
    debug_assert_eq!(at, n);
    out
}

/// The rank owning global row `g` under [`split_rows`] partitioning.
pub(crate) fn owner_of(ranges: &[RowRange], g: usize) -> usize {
    // Ranges are sorted and contiguous; binary search by start.
    match ranges.binary_search_by(|r| {
        if g < r.start {
            std::cmp::Ordering::Greater
        } else if g >= r.end {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }) {
        Ok(r) => r,
        Err(_) => panic!("global index {g} outside all ranges"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let r = split_rows(12, 4);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|x| x.len() == 3));
        assert_eq!(r[3].end, 12);
    }

    #[test]
    fn uneven_split_front_loads_extras() {
        let r = split_rows(10, 4);
        assert_eq!(
            r.iter().map(RowRange::len).collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
        assert_eq!(r[0], RowRange { start: 0, end: 3 });
        assert_eq!(r[2], RowRange { start: 6, end: 8 });
    }

    #[test]
    fn more_ranks_than_rows() {
        let r = split_rows(2, 5);
        assert_eq!(
            r.iter().map(RowRange::len).collect::<Vec<_>>(),
            vec![1, 1, 0, 0, 0]
        );
        assert!(r[4].is_empty());
    }

    #[test]
    fn owner_lookup_round_trips() {
        let r = split_rows(100, 7);
        for g in 0..100 {
            let o = owner_of(&r, g);
            assert!(r[o].contains(g), "row {g} owner {o}");
        }
    }

    #[test]
    #[should_panic(expected = "outside all ranges")]
    fn owner_out_of_range_panics() {
        let r = split_rows(10, 2);
        owner_of(&r, 10);
    }
}
