//! The open-loop arrival schedule and its accounting.
//!
//! Arrivals are generated up front from the seed, as a discrete-event
//! merge over a `BinaryHeap` of generators: one Poisson source per
//! tenant plus a periodic burst source. Requests are then sent at their
//! scheduled instants whatever the server's state, and every latency is
//! timed from the scheduled instant, so a stall also charges the
//! requests that queued behind it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What one arrival asks of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Event,
    VerdictQuery,
    StatsQuery,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the schedule starts.
    pub at_ns: u64,
    pub tenant: usize,
    pub kind: Kind,
}

/// The offered load.
#[derive(Debug, Clone, Copy)]
pub struct Offered {
    /// Events per second over all tenants, bursts included.
    pub events_per_s: f64,
    /// Every `burst_every_ms`, each tenant gets `burst_len` events at
    /// the same instant.
    pub burst_every_ms: u64,
    pub burst_len: usize,
    /// One query per this many events per tenant, alternating between
    /// verdict and tenant-stats queries.
    pub query_every: usize,
}

/// A source in the discrete-event merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    Poisson { tenant: usize },
    Burst,
}

/// SplitMix64: a small seeded generator, so the schedule depends on
/// the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per-tenant arrival lists, each in time order, covering
/// `duration_s` seconds.
///
/// # Panics
///
/// Panics if the bursts alone exceed the offered rate.
pub fn schedule(seed: u64, tenants: usize, offered: Offered, duration_s: f64) -> Vec<Vec<Arrival>> {
    let horizon = (duration_s * 1e9) as u64;
    let burst_rate = if offered.burst_every_ms == 0 {
        0.0
    } else {
        (offered.burst_len * tenants) as f64 * 1000.0 / offered.burst_every_ms as f64
    };
    let poisson_rate = offered.events_per_s - burst_rate;
    assert!(poisson_rate > 0.0, "bursts exceed the offered rate");
    let per_tenant_rate = poisson_rate / tenants as f64;
    let mut rng = SplitMix::new(seed);
    let gap = |rng: &mut SplitMix| (-(1.0 - rng.unit()).ln() / per_tenant_rate * 1e9) as u64;

    let mut heap: BinaryHeap<Reverse<(u64, Source)>> = BinaryHeap::new();
    for tenant in 0..tenants {
        heap.push(Reverse((gap(&mut rng), Source::Poisson { tenant })));
    }
    if offered.burst_every_ms > 0 {
        heap.push(Reverse((offered.burst_every_ms * 1_000_000, Source::Burst)));
    }

    let mut out: Vec<Vec<Arrival>> = vec![Vec::new(); tenants];
    let mut events_seen = vec![0usize; tenants];
    let mut queries_sent = vec![0usize; tenants];
    let mut emit = |out: &mut Vec<Vec<Arrival>>, at_ns: u64, tenant: usize| {
        out[tenant].push(Arrival {
            at_ns,
            tenant,
            kind: Kind::Event,
        });
        events_seen[tenant] += 1;
        if offered.query_every > 0 && events_seen[tenant].is_multiple_of(offered.query_every) {
            let kind = if queries_sent[tenant].is_multiple_of(2) {
                Kind::VerdictQuery
            } else {
                Kind::StatsQuery
            };
            queries_sent[tenant] += 1;
            out[tenant].push(Arrival {
                at_ns,
                tenant,
                kind,
            });
        }
    };
    while let Some(Reverse((at_ns, source))) = heap.pop() {
        if at_ns >= horizon {
            break;
        }
        match source {
            Source::Poisson { tenant } => {
                emit(&mut out, at_ns, tenant);
                heap.push(Reverse((at_ns + gap(&mut rng).max(1), source)));
            }
            Source::Burst => {
                for tenant in 0..tenants {
                    for _ in 0..offered.burst_len {
                        emit(&mut out, at_ns, tenant);
                    }
                }
                heap.push(Reverse((
                    at_ns + offered.burst_every_ms * 1_000_000,
                    source,
                )));
            }
        }
    }
    out
}

/// Stamps of one open-loop request, in nanoseconds from the schedule's
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub scheduled_ns: u64,
    pub sent_ns: u64,
    /// `None` when no reply came.
    pub replied_ns: Option<u64>,
    pub kind: Kind,
    /// The connection had been idle (no send, no reply) this long
    /// before the send.
    pub idle_before_ns: u64,
}

impl Stamp {
    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.scheduled_ns)
    }

    /// Reply latency from the scheduled instant.
    pub fn latency_ns(&self) -> Option<u64> {
        self.replied_ns.map(|r| r.saturating_sub(self.scheduled_ns))
    }
}

/// The backlog — requests already due but not yet answered — over a
/// run: its peak, and whether it grew instead of draining.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backlog {
    pub peak: usize,
    /// Mean backlog over the second and the last quarter of the span.
    pub early_mean: f64,
    pub late_mean: f64,
}

impl Backlog {
    /// A backlog grows when the last quarter's mean is more than twice
    /// the second quarter's plus a slack of ten requests.
    pub fn growing(&self) -> bool {
        self.late_mean > 2.0 * self.early_mean + 10.0
    }
}

/// Sweeps the stamps in time order: +1 when a request falls due, −1
/// when it is answered (never, for unanswered ones).
pub fn backlog(stamps: &[Stamp], span_ns: u64) -> Backlog {
    let mut edges: Vec<(u64, i64)> = Vec::with_capacity(stamps.len() * 2);
    for s in stamps {
        edges.push((s.scheduled_ns, 1));
        if let Some(r) = s.replied_ns {
            edges.push((r.max(s.scheduled_ns), -1));
        }
    }
    // Replies before arrivals at the same instant.
    edges.sort_by_key(|&(t, d)| (t, d));
    let quarter = (span_ns / 4).max(1);
    let bounds = |q: u64| {
        (
            q * quarter,
            if q == 3 { span_ns } else { (q + 1) * quarter },
        )
    };
    // Time-weighted depth per quarter of the span.
    let mut area = [0f64; 4];
    let mut add_area = |from: u64, to: u64, depth: i64| {
        for (q, slot) in area.iter_mut().enumerate() {
            let (lo, hi) = bounds(q as u64);
            let (a, b) = (from.max(lo), to.min(hi));
            if b > a {
                *slot += depth as f64 * (b - a) as f64;
            }
        }
    };
    let mut depth = 0i64;
    let mut peak = 0i64;
    let mut last_t = 0u64;
    for (t, d) in edges {
        add_area(last_t, t, depth);
        last_t = t;
        depth += d;
        peak = peak.max(depth);
    }
    add_area(last_t, span_ns, depth);
    let (lo3, hi3) = bounds(3);
    Backlog {
        peak: peak as usize,
        early_mean: area[1] / quarter as f64,
        late_mean: area[3] / (hi3 - lo3).max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OFFERED: Offered = Offered {
        events_per_s: 1000.0,
        burst_every_ms: 250,
        burst_len: 8,
        query_every: 100,
    };

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let a = schedule(7, 2, OFFERED, 5.0);
        let b = schedule(7, 2, OFFERED, 5.0);
        let c = schedule(8, 2, OFFERED, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_offers_the_stated_rate_in_time_order() {
        let tenants = schedule(3, 2, OFFERED, 20.0);
        let events: usize = tenants
            .iter()
            .flatten()
            .filter(|a| a.kind == Kind::Event)
            .count();
        let rate = events as f64 / 20.0;
        assert!((rate - 1000.0).abs() < 50.0, "{rate}");
        for (t, list) in tenants.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
            assert!(list.iter().all(|a| a.tenant == t));
            let queries = list.iter().filter(|a| a.kind != Kind::Event).count();
            let events = list.len() - queries;
            assert_eq!(queries, events / 100);
        }
    }

    fn stamp(scheduled_ns: u64, sent_ns: u64, replied_ns: Option<u64>) -> Stamp {
        Stamp {
            scheduled_ns,
            sent_ns,
            replied_ns,
            kind: Kind::Event,
            idle_before_ns: 0,
        }
    }

    #[test]
    fn lateness_and_latency_count_from_the_schedule() {
        let s = stamp(1_000, 1_300, Some(2_000));
        assert_eq!(s.late_ns(), 300);
        assert_eq!(s.latency_ns(), Some(1_000));
        assert_eq!(stamp(1_000, 900, None).late_ns(), 0);
    }

    #[test]
    fn backlog_drains_when_every_request_is_answered_promptly() {
        let stamps: Vec<Stamp> = (0..100)
            .map(|i| stamp(i * 100, i * 100, Some(i * 100 + 50)))
            .collect();
        let b = backlog(&stamps, 10_000);
        assert_eq!(b.peak, 1);
        assert!(!b.growing());
    }

    #[test]
    fn backlog_grows_when_service_falls_behind() {
        // Due every 100 ns, answered every 200 ns: the queue grows
        // linearly and never drains.
        let stamps: Vec<Stamp> = (0..1000)
            .map(|i| stamp(i * 100, i * 100, Some(i * 200 + 50)))
            .collect();
        let b = backlog(&stamps, 100_000);
        assert!(b.peak >= 400, "{b:?}");
        assert!(b.growing(), "{b:?}");
        // Unanswered requests stay in the backlog.
        let lost = [stamp(0, 0, None), stamp(10, 10, None)];
        assert_eq!(backlog(&lost, 100).peak, 2);
    }
}
