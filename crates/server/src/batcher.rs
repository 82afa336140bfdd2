//! Shard batching for the transport-in stage.
//!
//! Each connection shard owns one [`EventBatcher`]. Submissions
//! accumulate until the batch is full (the size trigger, checked at
//! submit) or an idle pipeline executor sweeps the shard (see the crate
//! docs): batches grow only while every executor is busy, so an idle
//! server never holds an event back to fill a batch.
//!
//! The event batcher assembles the SIMD-friendly structure-of-arrays
//! layout **at ingest**: every push appends the event's coordinates to
//! per-dimension columns ([`pubsub_geom::EventSoA`]) alongside the
//! owned [`Point`]s, so the pipeline's match kernels fill their lane
//! blocks with contiguous column copies instead of transposing
//! point-at-a-time on the hot path.

use std::time::Instant;

use pubsub_geom::{EventSoA, Point};

/// Per-event submission bookkeeping carried alongside the payload from
/// ingest to egress: who sent it and when, so the egress record can
/// stamp end-to-end and per-stage latencies.
#[derive(Clone, Copy, Debug)]
pub struct SubmitMeta {
    /// The submitting client.
    pub client: u32,
    /// The client's sequence number for the event.
    pub seq: u64,
    /// Open-loop scheduled arrival — the end-to-end latency origin.
    pub scheduled: Instant,
    /// When `submit` accepted the event.
    pub submitted: Instant,
}

/// One batch in flight through the pipeline: submission metadata, the
/// owned events, and their structure-of-arrays mirror (same
/// coordinates, dimension-major columns) built at ingest.
#[derive(Debug)]
pub struct EventBatch {
    /// Per-event submission bookkeeping, in submission order.
    pub meta: Vec<SubmitMeta>,
    /// The events, parallel to `meta`.
    pub points: Vec<Point>,
    /// Dimension-major columns mirroring `points`.
    pub soa: EventSoA,
    /// When the batch left the shard batchers — flushed into the ingest
    /// queue, or swept by an executor (queue-wait latency basis).
    pub enqueued: Instant,
}

impl EventBatch {
    /// An empty batch over `dims` dimensions, stamped as enqueued at
    /// `now`.
    pub fn new(dims: usize, now: Instant) -> Self {
        EventBatch {
            meta: Vec::new(),
            points: Vec::new(),
            soa: EventSoA::new(dims),
            enqueued: now,
        }
    }

    /// Events in the batch.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }
}

/// The shard batcher of the staged server: a bounded event buffer that
/// extends the SoA columns in place on every push.
#[derive(Debug)]
pub struct EventBatcher {
    meta: Vec<SubmitMeta>,
    points: Vec<Point>,
    soa: EventSoA,
    max: usize,
    dims: usize,
}

impl EventBatcher {
    /// A batcher flushing at `max` events (minimum 1) in a `dims`-
    /// dimensional event space.
    pub fn new(max: usize, dims: usize) -> Self {
        EventBatcher {
            meta: Vec::new(),
            points: Vec::new(),
            soa: EventSoA::new(dims),
            max: max.max(1),
            dims,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Whether the buffer is at the size trigger — the caller must flush
    /// (or reject the submission) before pushing more.
    pub fn is_full(&self) -> bool {
        self.meta.len() >= self.max
    }

    /// Buffers one event, extending the SoA columns with its
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the batcher [`EventBatcher::is_full`] (the caller owns
    /// the flush-or-reject decision) or the event's dimensionality does
    /// not match the batcher's (the server validates at submit).
    pub fn push(&mut self, meta: SubmitMeta, event: Point) {
        assert!(!self.is_full(), "push into a full batcher");
        self.soa.push(&event);
        self.points.push(event);
        self.meta.push(meta);
    }

    /// Takes the buffered batch, stamped as enqueued at `now`. The
    /// backing allocations move out with the batch (the pipeline
    /// consumes them) and pre-sized empty buffers stay behind, so the
    /// submits that refill the shard push without allocating.
    pub fn take(&mut self, now: Instant) -> EventBatch {
        let cap = self.max.min(self.len().max(4));
        let mut soa = EventSoA::new(self.dims);
        soa.reserve(cap);
        EventBatch {
            meta: std::mem::replace(&mut self.meta, Vec::with_capacity(cap)),
            points: std::mem::replace(&mut self.points, Vec::with_capacity(cap)),
            soa: std::mem::replace(&mut self.soa, soa),
            enqueued: now,
        }
    }

    /// Moves the buffered events onto the end of `out`, keeping this
    /// batcher's buffers (and their capacity) for the next submits.
    pub fn drain_into(&mut self, out: &mut EventBatch) {
        for point in &self.points {
            out.soa.push(point);
        }
        self.soa.clear();
        out.points.append(&mut self.points);
        out.meta.append(&mut self.meta);
    }

    /// Puts a just-taken batch back (a flush whose queue push was
    /// rejected).
    pub fn restore(&mut self, batch: EventBatch) {
        debug_assert!(self.meta.is_empty(), "restore over buffered events");
        self.meta = batch.meta;
        self.points = batch.points;
        self.soa = batch.soa;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(seq: u64) -> SubmitMeta {
        let now = Instant::now();
        SubmitMeta {
            client: 0,
            seq,
            scheduled: now,
            submitted: now,
        }
    }

    fn point(i: u64) -> Point {
        Point::new(vec![i as f64, 10.0 - i as f64]).expect("point")
    }

    fn seqs(batch: &EventBatch) -> Vec<u64> {
        batch.meta.iter().map(|m| m.seq).collect()
    }

    #[test]
    fn size_trigger_fires_at_max() {
        let mut b = EventBatcher::new(3, 2);
        assert!(b.is_empty());
        b.push(meta(1), point(1));
        b.push(meta(2), point(2));
        assert!(!b.is_full());
        b.push(meta(3), point(3));
        assert!(b.is_full());
        assert_eq!(seqs(&b.take(Instant::now())), vec![1, 2, 3]);
        assert!(b.is_empty() && !b.is_full());
    }

    #[test]
    #[should_panic(expected = "push into a full batcher")]
    fn push_into_full_panics() {
        let mut b = EventBatcher::new(1, 2);
        b.push(meta(1), point(1));
        b.push(meta(2), point(2));
    }

    #[test]
    fn take_works_at_every_small_max() {
        for max in 1..=5 {
            let mut b = EventBatcher::new(max, 2);
            for round in 0..3u64 {
                for i in 0..max as u64 {
                    b.push(meta(round * 10 + i), point(i));
                }
                assert!(b.is_full());
                let batch = b.take(Instant::now());
                assert_eq!(batch.len(), max, "max_batch = {max}");
                assert_eq!(batch.soa.len(), max);
                assert!(b.is_empty());
            }
        }
    }

    #[test]
    fn restore_puts_the_batch_back_in_order() {
        let mut b = EventBatcher::new(10, 2);
        b.push(meta(7), point(7));
        let batch = b.take(Instant::now());
        b.restore(batch);
        assert_eq!(b.len(), 1);
        b.push(meta(8), point(8));
        let again = b.take(Instant::now());
        assert_eq!(seqs(&again), vec![7, 8]);
        assert_eq!(again.soa.col(0), &[7.0, 8.0]);
    }

    #[test]
    fn event_batcher_mirrors_points_into_columns() {
        let mut b = EventBatcher::new(8, 2);
        for i in 0..5u64 {
            b.push(meta(i), point(i));
        }
        let batch = b.take(Instant::now());
        assert!(b.is_empty(), "take drained the batcher");
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.soa.len(), 5);
        for (i, p) in batch.points.iter().enumerate() {
            assert_eq!(batch.meta[i].seq, i as u64);
            for d in 0..2 {
                assert_eq!(batch.soa.col(d)[i].to_bits(), p.coord(d).to_bits());
            }
        }
    }

    #[test]
    fn drain_into_appends_shards_contiguously() {
        let (mut a, mut b) = (EventBatcher::new(8, 2), EventBatcher::new(8, 2));
        for i in 0..3u64 {
            a.push(meta(i), point(i));
        }
        for i in 10..12u64 {
            b.push(meta(i), point(i));
        }
        let mut out = EventBatch::new(2, Instant::now());
        a.drain_into(&mut out);
        b.drain_into(&mut out);
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(seqs(&out), vec![0, 1, 2, 10, 11]);
        assert_eq!(out.soa.len(), 5);
        assert_eq!(out.soa.col(0), &[0.0, 1.0, 2.0, 10.0, 11.0]);
        // The drained batcher keeps buffering normally.
        a.push(meta(3), point(3));
        assert_eq!(seqs(&a.take(Instant::now())), vec![3]);
    }
}
