//! Isolated per-layer loops: each calls one layer's public function on
//! the workload's own data, so in-pipeline overhead is the difference
//! between a stage's residence and its isolated cost.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

use pubsub_core::{
    Broker, DurableJournal, JournalConfig, JournalOp, MatchArena, MatchScratch, PublishScratch,
};
use pubsub_geom::{Point, Rect};
use pubsub_netsim::NodeId;
use pubsub_server::wire::{read_frame, write_frame, Frame};

use crate::stats::{nearest_rank, Summary};
use crate::trace::Span;

/// Time each loop spends, at least three passes.
const BUDGET: Duration = Duration::from_millis(150);

/// Runs `pass` (which handles `items` items) until [`BUDGET`] is spent,
/// at least three times, and returns the median ns per item. `pass`
/// returns the time it wants counted.
fn median_ns_per_item(items: usize, mut pass: impl FnMut() -> Duration) -> f64 {
    let start = Instant::now();
    let mut per_item = Vec::new();
    while per_item.len() < 3 || start.elapsed() < BUDGET {
        per_item.push(pass().as_nanos() as f64 / items.max(1) as f64);
    }
    per_item.sort_unstable_by(f64::total_cmp);
    nearest_rank(&per_item, 0.5)
}

/// Isolated `write_frame` / `read_frame` cost of the workload's publish
/// frames, ns per frame.
pub fn wire(pool: &[Point]) -> (f64, f64) {
    let frames: Vec<Frame> = pool
        .iter()
        .enumerate()
        .map(|(i, p)| Frame::Publish {
            seq: i as u64 + 1,
            coords: p.as_slice().to_vec(),
        })
        .collect();
    let mut buf: Vec<u8> = Vec::new();
    let encode = median_ns_per_item(frames.len(), || {
        buf.clear();
        let t0 = Instant::now();
        for f in &frames {
            write_frame(&mut buf, black_box(f)).expect("in-memory write");
        }
        t0.elapsed()
    });
    let decode = median_ns_per_item(frames.len(), || {
        let mut cursor = Cursor::new(&buf[..]);
        let t0 = Instant::now();
        while let Some(frame) = read_frame(&mut cursor).expect("frames just encoded") {
            black_box(frame);
        }
        t0.elapsed()
    });
    (encode, decode)
}

/// Isolated matcher, fused view and fold costs on one broker.
#[derive(Clone, Copy, Debug, Default)]
pub struct Engine {
    /// `Broker::match_only_into`, ns per event.
    pub match_ns: f64,
    /// `Matcher::match_events_into_arena` (the block kernel the fused
    /// pass runs) at the given batch size, ns per event.
    pub batch_match_ns: f64,
    /// Matched subscriptions per event.
    pub subs_per_event: f64,
    /// Interested nodes per event.
    pub nodes_per_event: f64,
    /// `PublishView::process_into`, ns per event, at the given batch size.
    pub process_ns: f64,
    /// `Broker::fold_staged`, ns per event, same batches.
    pub fold_ns: f64,
}

/// Times the point query, the fused pass and the fold over `pool` in
/// batches of `batch` events.
pub fn engine(broker: &mut Broker, pool: &[Point], batch: usize) -> Engine {
    let batch = batch.max(1);
    let mut scratch = MatchScratch::new();
    let (mut subs, mut nodes) = (Vec::new(), Vec::new());
    let (mut total_subs, mut total_nodes) = (0usize, 0usize);
    for e in pool {
        broker.match_only_into(e, &mut scratch, &mut subs, &mut nodes);
        total_subs += subs.len();
        total_nodes += nodes.len();
    }
    let match_ns = median_ns_per_item(pool.len(), || {
        let t0 = Instant::now();
        for e in pool {
            broker.match_only_into(black_box(e), &mut scratch, &mut subs, &mut nodes);
            black_box(subs.len());
        }
        t0.elapsed()
    });

    let mut arena = MatchArena::new();
    let batch_match_ns = median_ns_per_item(pool.len(), || {
        let t0 = Instant::now();
        for chunk in pool.chunks(batch) {
            arena.begin();
            broker.matcher().match_events_into_arena(
                black_box(chunk),
                std::iter::once(0..chunk.len()),
                &mut scratch,
                &mut arena,
            );
        }
        t0.elapsed()
    });

    let view = broker.publish_view();
    let mut pass_scratch = PublishScratch::default();
    let process_ns = median_ns_per_item(pool.len(), || {
        let t0 = Instant::now();
        for chunk in pool.chunks(batch) {
            view.process_into(black_box(chunk), None, &mut pass_scratch)
                .expect("pool events fit the space");
        }
        t0.elapsed()
    });
    let epoch = view.epoch();
    let mut outcomes = Vec::new();
    let fold_ns = median_ns_per_item(pool.len(), || {
        let mut spent = Duration::ZERO;
        for chunk in pool.chunks(batch) {
            view.process_into(chunk, None, &mut pass_scratch)
                .expect("pool events fit the space");
            outcomes.clear();
            let t0 = Instant::now();
            broker.fold_staged(chunk.len(), epoch, &mut pass_scratch, &mut outcomes);
            spent += t0.elapsed();
            black_box(outcomes.len());
        }
        spent
    });
    Engine {
        match_ns,
        batch_match_ns,
        subs_per_event: total_subs as f64 / pool.len() as f64,
        nodes_per_event: total_nodes as f64 / pool.len() as f64,
        process_ns,
        fold_ns,
    }
}

/// Isolated `DurableJournal::append` with fsync on, µs per append, in a
/// fresh journal under `dir` (removed afterwards).
pub fn journal_append(
    dir: &Path,
    subs: &[(NodeId, Rect)],
    count: usize,
    base: Instant,
) -> (Summary, Vec<Span>) {
    let mut journal =
        DurableJournal::create(&JournalConfig::new(dir)).expect("journal directory is writable");
    let mut times = Vec::with_capacity(count);
    let mut spans = Vec::with_capacity(count);
    for i in 0..count {
        let (node, rect) = &subs[i % subs.len()];
        let op = JournalOp::Subscribe {
            handle: i as u32,
            node: node.0,
            rect: rect.clone(),
        };
        let t0 = Instant::now();
        journal.append(&op).expect("journal append");
        let t1 = Instant::now();
        times.push((t1 - t0).as_nanos() as f64 / 1e3);
        spans.push(Span::new(
            "journal.append",
            u32::MAX,
            i as u64,
            base,
            t0,
            t1,
        ));
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    (Summary::of(&mut times), spans)
}
