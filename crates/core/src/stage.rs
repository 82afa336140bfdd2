//! The pipeline-stage seam of the staged serving architecture.
//!
//! The serving front-end (crate `pubsub-server`) splits publishing into
//! three stages — transport-in (ingest), pipeline, transport-out
//! (egress) — decoupled by bounded queues. The middle stage is the
//! existing fused match → cost → decide pass; [`PublishStage`] re-exposes
//! it behind a trait so the same engine serves both the legacy
//! synchronous API (`Broker::publish_batch`, kept bit-identical) and the
//! async staged path, and so tests can interpose instrumented stages.
//!
//! A [`StagedBatch`] carries the engine **epoch the batch was actually
//! processed under** out of the stage. That stamp is the async-handoff
//! safety rail: when a recompile lands between ingest and match, the
//! batch that was queued first still processes first (the ingest queue is
//! ordered) and its outcomes are stamped with the pre-recompile epoch,
//! while the epoch-keyed scheme-cost memo self-invalidates on the bump —
//! there is no window where a stale memo row can serve a new-epoch batch
//! or vice versa. The regression test `serving_churn.rs` pins this down.

use pubsub_geom::Point;

use crate::{Broker, BrokerError, PublishOutcome};

/// Which serving stage a latency sample belongs to; see
/// [`Broker::note_stage_latency`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageKind {
    /// Transport-in: submission → dequeue by the pipeline stage
    /// (per-event queueing delay in the ingest queue). The sum of
    /// [`StageKind::Batcher`] and [`StageKind::QueueWait`], kept whole
    /// for cross-version comparability.
    Ingest,
    /// Transport-in split: submission → the batch leaving the shard
    /// batchers (per-event residency until a size-trigger flush or an
    /// idle executor's sweep).
    Batcher,
    /// Transport-in split: batcher flush → dequeue by a pipeline
    /// executor (per-event wait in the bounded ingest queue).
    QueueWait,
    /// The fused match → cost → decide pass plus the in-order fold
    /// (per-batch).
    Pipeline,
    /// Transport-out: delivery fan-out and record stamping (per-batch).
    Egress,
}

/// The result of pushing one batch through a [`PublishStage`]: the
/// per-event outcomes plus the engine epoch they were computed under.
#[derive(Clone, PartialEq, Debug)]
pub struct StagedBatch {
    /// Per-event outcomes, in submission order — bit-identical to what
    /// the synchronous [`Broker::publish_batch`] would have returned for
    /// the same events at the same engine state.
    pub outcomes: Vec<PublishOutcome>,
    /// The engine-snapshot epoch the batch was processed under. Egress
    /// stamps this into every delivery record, so a consumer can tell
    /// exactly which compile served each event when churn and publishing
    /// interleave.
    pub epoch: u64,
}

/// The pipeline stage of the staged serving path: consumes one batch of
/// events, produces in-order outcomes stamped with the processing epoch.
///
/// Implemented by [`Broker`] (delegating to the fused batch pipeline, so
/// async and synchronous callers run byte-for-byte the same engine) and
/// by test doubles that wrap a broker to inject delays or extra
/// bookkeeping between stages.
pub trait PublishStage {
    /// Processes one batch with up to `threads` pipeline workers
    /// (`None` = available parallelism).
    ///
    /// # Errors
    ///
    /// Whatever the underlying engine rejects — for [`Broker`] this is
    /// [`BrokerError::DimensionMismatch`] on a malformed event (the
    /// whole batch rejects before anything records) or a fault-plan
    /// abort; see [`Broker::publish_batch`].
    fn process_batch(
        &mut self,
        events: &[Point],
        threads: Option<usize>,
    ) -> Result<StagedBatch, BrokerError>;

    /// The engine epoch a batch submitted *now* would process under.
    /// Advisory (the answer may be stale by the time the batch runs);
    /// the authoritative stamp is [`StagedBatch::epoch`].
    fn current_epoch(&self) -> u64;
}

impl PublishStage for Broker {
    fn process_batch(
        &mut self,
        events: &[Point],
        threads: Option<usize>,
    ) -> Result<StagedBatch, BrokerError> {
        let outcomes = self.publish_batch(events, threads)?;
        Ok(StagedBatch {
            outcomes,
            // publish_batch never swaps the snapshot, so this is the
            // epoch the whole batch was matched and costed under.
            epoch: self.epoch(),
        })
    }

    fn current_epoch(&self) -> u64 {
        self.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_clustering::{ClusteringAlgorithm, ClusteringConfig};
    use pubsub_geom::{Rect, Space};
    use pubsub_netsim::TransitStubConfig;

    fn tiny_broker() -> Broker {
        let topo = TransitStubConfig::tiny().generate(5).expect("tiny topo");
        let space = Space::anonymous(Rect::from_corners(&[0.0, 0.0], &[10.0, 10.0]).expect("rect"))
            .expect("space");
        let nodes = topo.stub_nodes().to_vec();
        Broker::builder(topo, space)
            .subscription(
                nodes[0],
                Rect::from_corners(&[0.0, 0.0], &[5.0, 5.0]).expect("rect"),
            )
            .subscription(
                nodes[1 % nodes.len()],
                Rect::from_corners(&[2.0, 2.0], &[8.0, 8.0]).expect("rect"),
            )
            .clustering(ClusteringConfig::new(ClusteringAlgorithm::ForgyKMeans, 2))
            .threshold(0.15)
            .build()
            .expect("broker")
    }

    #[test]
    fn stage_matches_synchronous_batch() {
        let mut staged = tiny_broker();
        let mut sync = tiny_broker();
        let events: Vec<Point> = (0..10)
            .map(|i| Point::new(vec![i as f64, (10 - i) as f64]).expect("point"))
            .collect();
        let batch = staged.process_batch(&events, Some(2)).expect("staged");
        let reference = sync.publish_batch(&events, Some(1)).expect("sync");
        assert_eq!(batch.outcomes, reference);
        assert_eq!(batch.epoch, sync.epoch());
        assert_eq!(staged.current_epoch(), batch.epoch);
        // The cumulative reports advanced identically too.
        assert_eq!(staged.report(), sync.report());
    }

    #[test]
    fn stage_epoch_tracks_recompile() {
        let mut broker = tiny_broker();
        let events = [Point::new(vec![3.0, 3.0]).expect("point")];
        let before = broker.process_batch(&events, None).expect("batch");
        broker.recompile().expect("recompile");
        let after = broker.process_batch(&events, None).expect("batch");
        assert!(after.epoch > before.epoch);
    }
}
