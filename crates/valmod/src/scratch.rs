//! Stage-2 working state: per-run buffers recycled across length steps,
//! including the flattened dot-product table every step advances.
//!
//! # Why a flattened table
//!
//! Stage 2 stores one running dot product per partial-profile entry. The
//! entries live row-by-row inside [`PartialRow`]s — convenient for
//! ownership, terrible for the advance loop, which touches every entry of
//! every row once per length. [`DotTable`] keeps the same data in
//! structure-of-arrays form (`offsets`/`j`/`qt`), so the advance is one
//! contiguous sweep the SIMD kernel
//! ([`crate::kernel::advance_entry_dots`]) can chew through. The kernel
//! reads one slice and writes another, so the table keeps a second dot
//! buffer (`qt_next`) that each advance fills and then swaps in.
//!
//! The table is authoritative for dot values during stage 2; the `qt`
//! fields inside the rows' entries are only synchronized back
//! ([`DotTable::write_back`]) at re-seed boundaries, where row shapes
//! change anyway.

use valmod_mp::mass::ProfileScratch;

use crate::partial::PartialRow;

/// Classification outcome of one row at one length.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowOutcome {
    pub min_dist: f64,
    pub min_j: usize,
    pub max_lb: f64,
    pub valid: bool,
}

impl RowOutcome {
    pub(crate) const EMPTY: Self =
        Self { min_dist: f64::INFINITY, min_j: usize::MAX, max_lb: f64::INFINITY, valid: true };
}

/// The flattened dot-product store (see module docs).
#[derive(Debug, Default)]
pub(crate) struct DotTable {
    /// Row `i`'s entries occupy `offsets[i]..offsets[i + 1]`.
    pub offsets: Vec<usize>,
    /// Candidate offsets, flattened in row-entry order.
    pub j: Vec<u32>,
    /// Current dot products (valid for the length last advanced to).
    pub qt: Vec<f64>,
    /// The advance's destination, swapped with `qt` after each advance.
    pub qt_next: Vec<f64>,
}

impl DotTable {
    /// (Re)builds the table from the rows' entries — at stage-2 entry and
    /// after a MASS re-seed changed row shapes.
    pub(crate) fn build(&mut self, rows: &[PartialRow]) {
        let total: usize = rows.iter().map(|r| r.entries.len()).sum();
        self.offsets.clear();
        self.offsets.reserve(rows.len() + 1);
        self.j.clear();
        self.j.reserve(total);
        self.qt.clear();
        self.qt.reserve(total);
        self.offsets.push(0);
        for row in rows {
            for e in &row.entries {
                self.j.push(e.j);
                self.qt.push(e.qt);
            }
            self.offsets.push(self.j.len());
        }
        self.qt_next.clear();
        self.qt_next.resize(total, 0.0);
    }

    /// Writes the current dot products back into the rows' entries, so a
    /// rebuild after re-seeding sees every untouched row's dots exactly
    /// where the pre-table code kept them.
    pub(crate) fn write_back(&self, rows: &mut [PartialRow]) {
        for (i, row) in rows.iter_mut().enumerate() {
            let segment = &self.qt[self.offsets[i]..self.offsets[i + 1]];
            for (e, &dot) in row.entries.iter_mut().zip(segment) {
                e.qt = dot;
            }
        }
    }
}

/// Stage-2 buffers allocated once per run and recycled across length
/// steps; `mass` holds one MASS scratch per recomputation worker.
#[derive(Default)]
pub(crate) struct StepScratch {
    pub means: Vec<f64>,
    pub stds: Vec<f64>,
    pub outcomes: Vec<RowOutcome>,
    pub mass: Vec<ProfileScratch>,
    pub dots: DotTable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial::TopRhoSelector;

    fn row(base_len: usize, entries: &[(usize, f64, f64)]) -> PartialRow {
        let mut sel = TopRhoSelector::new(entries.len().max(1));
        for &(j, rho, qt) in entries {
            sel.offer(j, rho, qt);
        }
        sel.into_row(base_len)
    }

    #[test]
    fn build_flattens_rows_in_entry_order() {
        let rows =
            vec![row(8, &[(3, 0.9, 1.0), (5, 0.5, 2.0)]), row(8, &[]), row(8, &[(0, 0.1, 3.0)])];
        let mut table = DotTable::default();
        table.build(&rows);
        assert_eq!(table.offsets, vec![0, 2, 2, 3]);
        assert_eq!(table.j, vec![3, 5, 0]);
        assert_eq!(table.qt, vec![1.0, 2.0, 3.0]);
        assert_eq!(table.qt_next.len(), 3);
    }

    #[test]
    fn write_back_round_trips_through_build() {
        let mut rows = vec![row(8, &[(3, 0.9, 1.0), (5, 0.5, 2.0)]), row(8, &[(1, 0.2, 4.0)])];
        let mut table = DotTable::default();
        table.build(&rows);
        table.qt.copy_from_slice(&[10.0, 20.0, 40.0]);
        table.write_back(&mut rows);
        assert_eq!(rows[0].entries[0].qt, 10.0);
        assert_eq!(rows[0].entries[1].qt, 20.0);
        assert_eq!(rows[1].entries[0].qt, 40.0);
        let mut rebuilt = DotTable::default();
        rebuilt.build(&rows);
        assert_eq!(rebuilt.qt, table.qt);
        assert_eq!(rebuilt.j, table.j);
    }
}
