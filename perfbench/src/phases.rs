//! The load phases: open-loop arrivals at a fixed rate, the closed-loop
//! capacity probe, the control loop, and lock-step TCP clients.
//!
//! Every phase keeps a [`Ledger`] of what it offered and how each
//! submission was answered, so the sink's records can be checked for
//! conservation afterwards.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pubsub_core::SubscriptionHandle;
use pubsub_geom::Rect;
use pubsub_netsim::NodeId;
use pubsub_server::tcp::{ClientConfig, ServingClient};
use pubsub_server::{IngestHandle, RejectReason};
use pubsub_workload::Arrival;

use crate::check::Ledger;
use crate::trace::{ns_since, Span};
use crate::workload::{sub_seed, Inputs, CLIENTS};

/// Waits for `t`: sleeps through long gaps, yields through short ones so
/// the server's threads keep the cores while the generator waits.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let gap = t - now;
        if gap > Duration::from_micros(250) {
            std::thread::sleep(gap - Duration::from_micros(150));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What the open-loop generator saw.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Offers and answers.
    pub ledger: Ledger,
    /// Scheduled arrival of seq `seq_base + i`, ns since the base.
    pub scheduled_ns: Vec<u64>,
    /// How late the generator submitted each arrival, ns.
    pub lag_ns: Vec<f64>,
    /// Duration of each `IngestHandle::submit` call, ns.
    pub submit_ns: Vec<f64>,
    /// First seq of the phase.
    pub seq_base: u64,
    /// Schedule start and end, ns since the base.
    pub start_ns: u64,
    /// End of the schedule.
    pub end_ns: u64,
    /// Spans around each submit (traced runs only).
    pub spans: Vec<Span>,
}

/// Replays `arrivals` against `handle`: each arrival is submitted at its
/// scheduled instant (or as soon after as the generator gets there) and
/// timed from that instant. Rejected arrivals are not retried.
pub fn open_loop(
    handle: &IngestHandle,
    inputs: &Inputs,
    arrivals: &[Arrival],
    seq_base: u64,
    base: Instant,
    traced: bool,
) -> OpenLoop {
    let n = arrivals.len();
    let mut out = OpenLoop {
        scheduled_ns: Vec::with_capacity(n),
        lag_ns: Vec::with_capacity(n),
        submit_ns: Vec::with_capacity(n),
        seq_base,
        spans: Vec::with_capacity(if traced { n } else { 0 }),
        ..OpenLoop::default()
    };
    out.ledger.accepted.reserve(n);
    // A short lead so the first arrivals are not late before the stage
    // threads are scheduled.
    let start = Instant::now() + Duration::from_millis(20);
    out.start_ns = ns_since(base, start);
    for (i, a) in arrivals.iter().enumerate() {
        let scheduled = start + Duration::from_nanos(a.at_ns);
        wait_until(scheduled);
        let seq = seq_base + i as u64;
        let event = inputs.event(seq).clone();
        let t0 = Instant::now();
        let result = handle.submit(a.client, seq, event, scheduled);
        let t1 = Instant::now();
        out.ledger.offered += 1;
        match result {
            Ok(()) => out.ledger.accepted.push((a.client, seq)),
            Err(_) => out.ledger.rejected += 1,
        }
        out.scheduled_ns.push(ns_since(base, scheduled));
        out.lag_ns.push((t0 - scheduled).as_nanos() as f64);
        out.submit_ns.push((t1 - t0).as_nanos() as f64);
        if traced {
            out.spans
                .push(Span::new("ingest.submit", a.client, seq, base, t0, t1));
        }
    }
    out.end_ns = ns_since(base, Instant::now());
    out
}

/// What the closed-loop capacity generator saw.
#[derive(Debug, Default)]
pub struct Capacity {
    /// Offers and answers (every shed retry is an offer and a reject).
    pub ledger: Ledger,
    /// Submissions shed and retried — the mechanism of this phase, not
    /// an error.
    pub shed_retries: u64,
    /// Phase start and end, ns since the base.
    pub start_ns: u64,
    /// When the generator stopped.
    pub end_ns: u64,
    /// The seq after the last one submitted.
    pub next_seq: u64,
}

/// Submits as fast as admission allows for `seconds`, retrying a shed
/// event until it is accepted.
pub fn capacity(
    handle: &IngestHandle,
    inputs: &Inputs,
    seq_base: u64,
    seconds: f64,
    base: Instant,
) -> Capacity {
    let mut out = Capacity::default();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    out.start_ns = ns_since(base, t0);
    let mut seq = seq_base;
    let mut i = 0u64;
    loop {
        // Check the clock every 64 submissions: the loop is tight.
        if i.is_multiple_of(64) && Instant::now() >= deadline {
            break;
        }
        i += 1;
        let client = (seq % CLIENTS as u64) as u32;
        loop {
            out.ledger.offered += 1;
            match handle.submit_now(client, seq, inputs.event(seq).clone()) {
                Ok(()) => {
                    out.ledger.accepted.push((client, seq));
                    break;
                }
                Err(RejectReason::Shed { .. } | RejectReason::QueueFull) => {
                    out.ledger.rejected += 1;
                    out.shed_retries += 1;
                    // Back off briefly: spinning here would take the core
                    // the executors need to drain the queue.
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(_) => {
                    out.ledger.rejected += 1;
                    break;
                }
            }
        }
        seq += 1;
    }
    out.end_ns = ns_since(base, Instant::now());
    out.next_seq = seq;
    out
}

/// The control loop: subscribe/unsubscribe pairs through an
/// [`IngestHandle`], keeping at most `cap` transient subscriptions live.
#[derive(Debug)]
pub struct Churner {
    candidates: Vec<(NodeId, Rect)>,
    live: VecDeque<SubscriptionHandle>,
    cap: usize,
    next: usize,
    /// Subscribe call → return, ns.
    pub subscribe_ns: Vec<f64>,
    /// Unsubscribe call → return, ns.
    pub unsubscribe_ns: Vec<f64>,
    /// Control operations that returned an error.
    pub failed: u64,
    /// Spans around each call (traced runs only).
    pub spans: Vec<Span>,
    traced: bool,
}

impl Churner {
    /// A churner cycling through `candidates`.
    pub fn new(candidates: &[(NodeId, Rect)], cap: usize, traced: bool) -> Churner {
        Churner {
            candidates: candidates.to_vec(),
            live: VecDeque::new(),
            cap,
            next: 0,
            subscribe_ns: Vec::new(),
            unsubscribe_ns: Vec::new(),
            failed: 0,
            spans: Vec::new(),
            traced,
        }
    }

    /// Transient subscriptions currently live.
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// Control operations attempted.
    pub fn ops(&self) -> u64 {
        (self.subscribe_ns.len() + self.unsubscribe_ns.len()) as u64 + self.failed
    }

    /// One pair: subscribe the next candidate, and once the live set is
    /// over its cap, unsubscribe the oldest.
    pub fn pair(&mut self, handle: &IngestHandle, base: Instant) {
        let (node, rect) = self.candidates[self.next % self.candidates.len()].clone();
        self.next += 1;
        let t0 = Instant::now();
        let added = handle.subscribe(node, rect);
        let t1 = Instant::now();
        match added {
            Ok(h) => {
                self.subscribe_ns.push((t1 - t0).as_nanos() as f64);
                self.live.push_back(h);
                if self.traced {
                    let op = self.next as u64;
                    self.spans
                        .push(Span::new("control.subscribe", u32::MAX, op, base, t0, t1));
                }
            }
            Err(_) => self.failed += 1,
        }
        if self.live.len() > self.cap {
            let oldest = self.live.pop_front().expect("live set is over its cap");
            let t0 = Instant::now();
            let removed = handle.unsubscribe(oldest);
            let t1 = Instant::now();
            match removed {
                Ok(()) => {
                    self.unsubscribe_ns.push((t1 - t0).as_nanos() as f64);
                    if self.traced {
                        let op = self.next as u64;
                        self.spans.push(Span::new(
                            "control.unsubscribe",
                            u32::MAX,
                            op,
                            base,
                            t0,
                            t1,
                        ));
                    }
                }
                Err(_) => {
                    self.failed += 1;
                    // Still live as far as the broker knows.
                    self.live.push_front(oldest);
                }
            }
        }
    }
}

/// Runs control pairs back to back for `seconds` (at most `max_pairs`).
pub fn control(
    handle: &IngestHandle,
    churner: &mut Churner,
    seconds: f64,
    max_pairs: usize,
    base: Instant,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for _ in 0..max_pairs {
        if Instant::now() >= deadline {
            break;
        }
        churner.pair(handle, base);
    }
}

/// One TCP connection's log.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// The client id the server bound to the session.
    pub client: u32,
    /// Offers and answers (seqs start at 1).
    pub ledger: Ledger,
    /// When seq `i + 1` was due (paced) or sent (closed loop), ns since
    /// the base: its latency is timed from here.
    pub send_ns: Vec<u64>,
    /// Publish → ack round trips of accepted publishes, ns.
    pub ack_ns: Vec<f64>,
    /// Ack arrival of each accepted publish, ns since the base.
    pub ack_at_ns: Vec<u64>,
    /// Transport errors (the connection is then abandoned).
    pub errors: u64,
    /// Spans around each publish (traced phases only).
    pub spans: Vec<Span>,
}

/// What the TCP phase produced.
#[derive(Debug)]
pub struct TcpRun {
    /// One log per connection.
    pub conns: Vec<ConnLog>,
    /// Phase start and end, ns since the base.
    pub start_ns: u64,
    /// When the clients stopped.
    pub end_ns: u64,
    /// Busy share of each thread role over the phase.
    pub busy: HashMap<&'static str, f64>,
    /// Live thread names at the end of the phase.
    pub threads: Vec<String>,
}

/// Drives one lock-step session client per entry of `schedules` for
/// `seconds`, one thread each, with session tokens drawn from `seed` and
/// `stream`. A client with a schedule publishes at its arrivals; one
/// without publishes back to back (closed loop). Connection 0 also runs
/// a control pair through `handle` every `churn_every` publishes. When
/// `traced`, every publish is recorded as a span.
#[allow(clippy::too_many_arguments)]
pub fn tcp(
    addr: SocketAddr,
    handle: &IngestHandle,
    inputs: &Inputs,
    churner: &mut Churner,
    schedules: &[Option<Vec<Arrival>>],
    churn_every: u64,
    seconds: f64,
    (seed, stream): (u64, u64),
    base: Instant,
    traced: bool,
) -> TcpRun {
    let connections = schedules.len();
    let before = crate::trace::thread_cpu();
    // A short lead so paced clients connect before their first arrival.
    let t0 = Instant::now() + Duration::from_millis(5);
    let deadline = t0 + Duration::from_secs_f64(seconds);
    // The clients wait here once done, so their CPU time is read while
    // they (and their server-side connection threads) are still alive.
    let finished = Barrier::new(connections + 1);
    let read = Barrier::new(connections + 1);
    let mut busy = HashMap::new();
    let mut threads = Vec::new();
    let conns = std::thread::scope(|scope| {
        let mut churner_slot = Some(churner);
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                let churner = if c == 0 { churner_slot.take() } else { None };
                let stream = 16 * stream + c as u64;
                let config = ClientConfig {
                    session_token: Some(sub_seed(seed, 100 + stream)),
                    seed: sub_seed(seed, 200 + stream),
                    ..ClientConfig::default()
                };
                let barriers = [&finished, &read];
                std::thread::Builder::new()
                    .name(format!("perfbench-cli-{c}"))
                    .spawn_scoped(scope, move || {
                        let load = Load {
                            schedule: schedules[c].as_deref(),
                            start: t0,
                            handle,
                            inputs,
                            churn_every,
                            // Each connection and phase walks its own
                            // stretch of the pool.
                            offset: (stream * 7 + 3) * 1031,
                            deadline,
                            traced,
                            base,
                        };
                        connection(addr, config, &load, churner, barriers)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        finished.wait();
        let after = crate::trace::thread_cpu();
        busy = crate::trace::busy_shares(&before, &after, t0.elapsed().as_secs_f64());
        threads = crate::trace::thread_names();
        read.wait();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    TcpRun {
        conns,
        start_ns: ns_since(base, t0),
        end_ns: ns_since(base, Instant::now()),
        busy,
        threads,
    }
}

/// What one connection of a TCP phase is given.
struct Load<'a> {
    /// Paced arrivals (offsets from `start`), or `None` for closed loop.
    schedule: Option<&'a [Arrival]>,
    start: Instant,
    handle: &'a IngestHandle,
    inputs: &'a Inputs,
    churn_every: u64,
    /// Where in the pool this connection starts.
    offset: u64,
    deadline: Instant,
    traced: bool,
    base: Instant,
}

fn connection(
    addr: SocketAddr,
    config: ClientConfig,
    load: &Load<'_>,
    mut churner: Option<&mut Churner>,
    [finished, read]: [&Barrier; 2],
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match ServingClient::with_config(addr, config) {
        Ok(c) => c,
        Err(_) => {
            log.errors += 1;
            finished.wait();
            read.wait();
            return log;
        }
    };
    log.client = client.client_id().unwrap_or(u32::MAX);
    let base = load.base;
    let mut seq = 1u64;
    while Instant::now() < load.deadline {
        // Paced: wait for the next arrival (a late client sends at once
        // and the lateness counts); closed loop: send right away.
        let due = match load.schedule {
            Some(schedule) => {
                let Some(a) = schedule.get(seq as usize - 1) else {
                    break;
                };
                let due = load.start + Duration::from_nanos(a.at_ns);
                if due >= load.deadline {
                    break;
                }
                wait_until(due);
                Some(due)
            }
            None => None,
        };
        let coords = load.inputs.event(seq + load.offset).as_slice().to_vec();
        let t0 = Instant::now();
        let answer = client.publish(seq, coords);
        let t1 = Instant::now();
        log.ledger.offered += 1;
        match answer {
            Ok((true, _)) => {
                log.ledger.accepted.push((log.client, seq));
                log.send_ns.push(ns_since(base, due.unwrap_or(t0)));
                log.ack_ns.push((t1 - t0).as_nanos() as f64);
                log.ack_at_ns.push(ns_since(base, t1));
                if load.traced {
                    log.spans
                        .push(Span::new("tcp.publish", log.client, seq, base, t0, t1));
                }
                if seq.is_multiple_of(load.churn_every) {
                    if let Some(ch) = churner.as_deref_mut() {
                        ch.pair(load.handle, base);
                    }
                }
                seq += 1;
            }
            Ok((false, _)) => {
                // Shed: retry the same seq (the session never saw it).
                log.ledger.rejected += 1;
                std::thread::yield_now();
            }
            Err(_) => {
                // A lock-step client that lost its connection cannot know
                // whether the server took the publish; stop here and let
                // the error count fail the run.
                log.ledger.rejected += 1;
                log.errors += 1;
                break;
            }
        }
    }
    // Hold the connection open (its server thread alive) until the
    // phase's CPU times are read.
    finished.wait();
    read.wait();
    drop(client);
    log
}

/// Submits `count` events back to back through `submit_now` (the call a
/// TCP connection thread makes), timing each call.
pub fn isolated_submits(
    handle: &IngestHandle,
    inputs: &Inputs,
    client: u32,
    count: u64,
    base: Instant,
) -> (Ledger, Vec<f64>, Vec<Span>) {
    let mut ledger = Ledger::default();
    let mut times = Vec::with_capacity(count as usize);
    let mut spans = Vec::with_capacity(count as usize);
    for seq in 1..=count {
        let event = inputs.event(seq).clone();
        let t0 = Instant::now();
        let result = handle.submit_now(client, seq, event);
        let t1 = Instant::now();
        ledger.offered += 1;
        match result {
            Ok(()) => {
                ledger.accepted.push((client, seq));
                times.push((t1 - t0).as_nanos() as f64);
                spans.push(Span::new("ingest.submit_now", client, seq, base, t0, t1));
            }
            Err(_) => ledger.rejected += 1,
        }
        // Pace lightly so the isolated calls see an idle pipeline.
        if seq % 32 == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    (ledger, times, spans)
}
