//! A structure-of-arrays event batch: one contiguous column per
//! dimension, built incrementally as events arrive.
//!
//! The SIMD matching kernels consume events in dimension-major blocks
//! (`EventBlock` in `pubsub-stree`): lane `l` of dimension `d` sits at
//! `d * LANES + l`. A batch that arrives as `&[Point]` (array of
//! structs) has to be *transposed* into that layout once per block on
//! the hot path. [`EventSoA`] moves the transpose to ingest time: the
//! batcher appends each event's coordinates into per-dimension columns
//! as it buffers them, and the pipeline fills its blocks with straight
//! contiguous copies from the columns — no per-lane gather.
//!
//! The SoA is a *mirror*, not a replacement: overlay queries, covering
//! expansion and grid-cell lookup still want a per-event [`Point`]
//! view, so batches carry both. The two are kept consistent by
//! construction (both are appended from the same submission).

use crate::Point;

/// Dimension-major columns of an event batch: `col(d)[i]` is coordinate
/// `d` of the `i`-th event.
#[derive(Clone, Debug, Default)]
pub struct EventSoA {
    /// One column per dimension, all the same length.
    cols: Vec<Vec<f64>>,
    /// Number of events appended.
    len: usize,
}

impl EventSoA {
    /// An empty batch over `dims` dimensions.
    pub fn new(dims: usize) -> EventSoA {
        EventSoA {
            cols: vec![Vec::new(); dims],
            len: 0,
        }
    }

    /// Number of dimensions (columns).
    pub fn dims(&self) -> usize {
        self.cols.len()
    }

    /// Number of events appended.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column for dimension `d`: one `f64` per event, in append
    /// order.
    ///
    /// # Panics
    ///
    /// If `d >= self.dims()`.
    pub fn col(&self, d: usize) -> &[f64] {
        &self.cols[d]
    }

    /// Appends one event's coordinates to every column.
    ///
    /// # Panics
    ///
    /// If the point's dimensionality differs from `self.dims()` — the
    /// caller (the ingest batcher) validates dimensionality before
    /// accepting a submission, so a mismatch here is a bug, not bad
    /// input.
    pub fn push(&mut self, point: &Point) {
        let coords = point.as_slice();
        assert_eq!(
            coords.len(),
            self.cols.len(),
            "EventSoA::push: {} coords into {} columns",
            coords.len(),
            self.cols.len()
        );
        for (col, &c) in self.cols.iter_mut().zip(coords) {
            col.push(c);
        }
        self.len += 1;
    }

    /// Reserves room for at least `additional` more events in every
    /// column.
    pub fn reserve(&mut self, additional: usize) {
        for col in &mut self.cols {
            col.reserve(additional);
        }
    }

    /// Clears all columns, keeping their allocations for reuse.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.len = 0;
    }

    /// Re-dimensions the batch (clearing it) — used when a recycled
    /// buffer is reused for a space with a different dimensionality.
    pub fn reset(&mut self, dims: usize) {
        if self.cols.len() != dims {
            self.cols.resize(dims, Vec::new());
        }
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_mirror_points() {
        let points: Vec<Point> = (0..5)
            .map(|i| Point::new(vec![i as f64, 10.0 - i as f64, 0.5 * i as f64]).unwrap())
            .collect();
        let mut soa = EventSoA::new(3);
        for p in &points {
            soa.push(p);
        }
        assert_eq!(soa.len(), 5);
        assert_eq!(soa.dims(), 3);
        for (i, p) in points.iter().enumerate() {
            for d in 0..3 {
                assert_eq!(soa.col(d)[i], p.coord(d));
            }
        }
    }

    #[test]
    fn clear_keeps_dims_and_empties_columns() {
        let mut soa = EventSoA::new(2);
        soa.push(&Point::new(vec![1.0, 2.0]).unwrap());
        soa.clear();
        assert!(soa.is_empty());
        assert_eq!(soa.dims(), 2);
        assert!(soa.col(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "EventSoA::push")]
    fn dimension_mismatch_panics() {
        let mut soa = EventSoA::new(2);
        soa.push(&Point::new(vec![1.0, 2.0, 3.0]).unwrap());
    }
}
