//! Spans around the benchmark's calls into each layer, and the process
//! counters read from `/proc`.
//!
//! Spans are kept in memory by whichever thread records them and written
//! once, when the run ends. Spans of one request share its
//! `(client, seq)` identifier.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary the call crossed, e.g. `ingest.submit`.
    pub name: &'static str,
    /// Request identifier: the submitting client (`u32::MAX` for control
    /// operations and isolated loops) ...
    pub client: u32,
    /// ... and its sequence number (operation counter otherwise).
    pub seq: u64,
    /// Start, ns since the run's base instant.
    pub start_ns: u64,
    /// End, ns since the base.
    pub end_ns: u64,
}

impl Span {
    /// A span from `t0` to `t1`.
    pub fn new(
        name: &'static str,
        client: u32,
        seq: u64,
        base: Instant,
        t0: Instant,
        t1: Instant,
    ) -> Span {
        Span {
            name,
            client,
            seq,
            start_ns: ns_since(base, t0),
            end_ns: ns_since(base, t1),
        }
    }
}

/// `t - base` in ns (0 if `t` precedes `base`).
pub fn ns_since(base: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(base).as_nanos() as u64
}

/// Writes `spans` as JSON lines to `path`. The parent of a request's
/// span is the previous span of the same request, so a request reads as
/// a chain, e.g. `ingest.submit` → `egress.sink`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.client, s.seq, s.start_ns));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut prev: Option<&Span> = None;
    for s in sorted {
        let parent = match prev {
            Some(p) if p.client == s.client && p.seq == s.seq => format!("\"{}\"", p.name),
            _ => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"trace\":\"{}:{}\",\"span\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.client, s.seq, s.name, s.start_ns, s.end_ns
        )?;
        prev = Some(s);
    }
    out.flush()
}

/// Clock ticks per second of `/proc/<pid>/task/<tid>/stat` times
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) and name of every thread of this process,
/// by thread id. Empty where `/proc` is unavailable.
pub fn thread_cpu() -> HashMap<u64, (String, f64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `tid (comm) state ppid ...`: comm may hold spaces, so split at
        // the last ')'; utime and stime are fields 14 and 15.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let name = stat[open + 1..close].to_string();
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        out.insert(tid, (name, (tick(11) + tick(12)) / USER_HZ));
    }
    out
}

/// Thread roles whose busy share is reported.
pub const ROLES: [&str; 6] = ["gen", "exec", "fold", "egress", "flusher", "conn"];

/// The role of a thread, by its name.
fn role(name: &str) -> Option<&'static str> {
    if name.starts_with("perfbench-gen") || name.starts_with("perfbench-cli") {
        Some("gen")
    } else if name.starts_with("pubsub-exec") {
        Some("exec")
    } else if name.starts_with("pubsub-fold") {
        Some("fold")
    } else if name.starts_with("pubsub-egress") {
        Some("egress")
    } else if name.starts_with("pubsub-flusher") {
        Some("flusher")
    } else if name.starts_with("pubsub-conn") {
        Some("conn")
    } else {
        None
    }
}

/// CPU seconds per role accumulated between two [`thread_cpu`] reads,
/// divided by `wall_s`: the share of one core each role kept busy.
/// Threads that appear only in `after` started inside the interval.
pub fn busy_shares(
    before: &HashMap<u64, (String, f64)>,
    after: &HashMap<u64, (String, f64)>,
    wall_s: f64,
) -> HashMap<&'static str, f64> {
    let mut shares: HashMap<&'static str, f64> = ROLES.iter().map(|&r| (r, 0.0)).collect();
    for (tid, (name, cpu)) in after {
        if let Some(r) = role(name) {
            let start = before.get(tid).map_or(0.0, |(_, c)| *c);
            *shares.get_mut(r).expect("every role is present") += (cpu - start).max(0.0) / wall_s;
        }
    }
    shares
}

/// Names of this process's live threads, sorted, with a count per name
/// pattern collapsed (`pubsub-exec-*` ×2).
pub fn thread_names() -> Vec<String> {
    let mut names: Vec<String> = thread_cpu().into_values().map(|(n, _)| n).collect();
    names.sort();
    let mut out: Vec<(String, usize)> = Vec::new();
    for n in names {
        let key = match n.rfind('-') {
            Some(i) if n[i + 1..].chars().all(|c| c.is_ascii_digit()) && i + 1 < n.len() => {
                format!("{}-*", &n[..i])
            }
            _ => n,
        };
        match out.last_mut() {
            Some((k, c)) if *k == key => *c += 1,
            _ => out.push((key, 1)),
        }
    }
    out.into_iter()
        .map(|(k, c)| if c > 1 { format!("{k} x{c}") } else { k })
        .collect()
}

/// Peak resident set (`VmHWM`) of this process in MB (0 if unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
