//! The reply-correctness gate: every request the benchmark sends is
//! logged, and after timing each session's sequence is replayed through
//! a fresh serial [`BusSession`] whose results every reply must match.

use crate::load::{Pool, Spec, BURST_LEN, GROUPS, SCHEME};
use dbi_core::{BurstSlab, CostBreakdown, Scheme};
use dbi_mem::BusSession;
use dbi_service::wire::ErrorCode;
use dbi_service::EncodeReply;
use std::ops::Range;

/// How one logged request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Sent, not yet answered.
    Pending,
    /// Answered with results; the fingerprint of `bursts` and the
    /// per-group costs.
    Replied { fingerprint: u64, transitions: u32 },
    /// Refused before it ran (`Overloaded`, `SessionLimit`): the session
    /// did not advance.
    Refused,
    /// Any other error: the session's carried state is now unknown.
    Failed,
}

/// One logged request.
#[derive(Debug, Clone, Copy)]
struct Record {
    session: u32,
    payload: u32,
    outcome: Outcome,
}

/// Every request the benchmark sent, in submission order. Same-session
/// requests execute in submission order (sticky routing and FIFO
/// connections), so the log is each session's exact history.
#[derive(Debug, Default)]
pub struct History {
    records: Vec<Record>,
    /// Log indices from which every session starts fresh: a new engine
    /// without persistence began there.
    restarts: Vec<usize>,
}

/// The gate's findings over one range of the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Requests in the range.
    pub attempted: u64,
    /// Requests in the range that were refused, errored or answered
    /// wrongly.
    pub failed: u64,
    /// Replies anywhere in the log that disagree with the replay, plus
    /// errors that leave a session's state unknown.
    pub wrong: u64,
    /// Per-group bursts the range's correct replies carried.
    pub bursts: u64,
    /// Lane transitions the range's correct replies report.
    pub transitions: u64,
    /// Lane transitions the same bursts cost unencoded.
    pub raw_transitions: u64,
}

impl Verdict {
    /// Transitions the encoder avoided per burst, against raw.
    #[must_use]
    pub fn saved_per_burst(&self) -> f64 {
        (self.raw_transitions as f64 - self.transitions as f64) / self.bursts.max(1) as f64
    }
}

impl History {
    /// Marks that every session starts fresh from the next record on:
    /// the engine the sessions lived in is gone.
    pub fn restart(&mut self) {
        self.restarts.push(self.records.len());
    }

    /// Number of records so far; the index the next [`History::send`]
    /// returns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Makes room for `additional` more records.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Logs a request about to be sent; returns its index.
    pub fn send(&mut self, session: u32, payload: usize) -> usize {
        self.records.push(Record {
            session,
            payload: u32::try_from(payload).expect("pool indices fit u32"),
            outcome: Outcome::Pending,
        });
        self.records.len() - 1
    }

    /// Logs the reply to request `index`.
    pub fn reply(&mut self, index: usize, reply: &EncodeReply) {
        let transitions: u64 = reply.per_group.iter().map(|c| c.transitions).sum();
        self.records[index].outcome = Outcome::Replied {
            fingerprint: fingerprint(reply.bursts, &reply.per_group),
            transitions: u32::try_from(transitions).expect("one request's transitions fit u32"),
        };
    }

    /// Logs the typed error request `index` was answered with.
    pub fn error(&mut self, index: usize, code: ErrorCode) {
        self.records[index].outcome = match code {
            ErrorCode::Overloaded | ErrorCode::SessionLimit => Outcome::Refused,
            _ => Outcome::Failed,
        };
    }

    /// Replays every session from its first logged request and checks
    /// each reply; counts and sums cover the records in `windows`.
    /// Sessions are independent, so they are split across `threads`.
    #[must_use]
    pub fn replay(
        &self,
        spec: &Spec,
        pool: &Pool,
        windows: &[Range<usize>],
        threads: usize,
    ) -> Verdict {
        let threads = threads.clamp(1, spec.sessions as usize);
        std::thread::scope(|scope| {
            let parts: Vec<_> = (0..threads)
                .map(|part| {
                    scope.spawn(move || self.replay_part(spec, pool, windows, part, threads))
                })
                .collect();
            parts.into_iter().fold(Verdict::default(), |sum, part| {
                let part = part.join().expect("a replay thread panicked");
                Verdict {
                    attempted: sum.attempted + part.attempted,
                    failed: sum.failed + part.failed,
                    wrong: sum.wrong + part.wrong,
                    bursts: sum.bursts + part.bursts,
                    transitions: sum.transitions + part.transitions,
                    raw_transitions: sum.raw_transitions + part.raw_transitions,
                }
            })
        })
    }

    /// [`History::replay`] over the sessions `s` with `s % parts == part`.
    fn replay_part(
        &self,
        spec: &Spec,
        pool: &Pool,
        windows: &[Range<usize>],
        part: usize,
        parts: usize,
    ) -> Verdict {
        let groups = usize::from(GROUPS);
        let burst_len = usize::from(BURST_LEN);
        let fresh = |scheme: Scheme| Some(BusSession::with_geometry(groups, burst_len, scheme));
        // One (encoder, raw) pair per session; `None` once a session's
        // state is unknown.
        let new_sessions = || -> Vec<Option<(BusSession, BusSession)>> {
            (0..spec.sessions)
                .map(|_| fresh(SCHEME).zip(fresh(Scheme::Raw)))
                .collect()
        };
        let mut sessions = new_sessions();
        let mut restarts = self.restarts.iter().peekable();
        let mut per_group = Vec::with_capacity(groups);
        let mut raw_group = Vec::with_capacity(groups);
        let mut raw_slab = BurstSlab::new(burst_len);
        let mut verdict = Verdict::default();
        for (index, record) in self.records.iter().enumerate() {
            if restarts.next_if(|&&at| at <= index).is_some() {
                while restarts.next_if(|&&at| at <= index).is_some() {}
                sessions = new_sessions();
            }
            if record.session as usize % parts != part {
                continue;
            }
            let timed = windows.iter().any(|window| window.contains(&index));
            verdict.attempted += u64::from(timed);
            let slot = &mut sessions[record.session as usize];
            let (fingerprint, transitions) = match record.outcome {
                Outcome::Replied {
                    fingerprint,
                    transitions,
                } => (fingerprint, transitions),
                Outcome::Refused => {
                    verdict.failed += u64::from(timed);
                    continue;
                }
                Outcome::Pending | Outcome::Failed => {
                    verdict.failed += u64::from(timed);
                    verdict.wrong += 1;
                    *slot = None;
                    continue;
                }
            };
            let Some((session, raw)) = slot.as_mut() else {
                // Every later reply of a session in an unknown state is
                // unverifiable, hence wrong.
                verdict.failed += u64::from(timed);
                verdict.wrong += 1;
                continue;
            };
            let payload = pool.get(record.payload as usize);
            let bursts = session
                .encode_stream_into(payload, &mut per_group, None)
                .expect("pool payloads are whole accesses");
            if fingerprint != self::fingerprint(bursts, &per_group) {
                verdict.failed += u64::from(timed);
                verdict.wrong += 1;
                continue;
            }
            if timed {
                // Raw is the baseline, not under test: its fast path will do.
                raw.encode_stream_slab_into(payload, &mut raw_group, None, &mut raw_slab)
                    .expect("pool payloads are whole accesses");
                verdict.bursts += bursts;
                verdict.transitions += u64::from(transitions);
                verdict.raw_transitions += raw_group.iter().map(|c| c.transitions).sum::<u64>();
            }
        }
        verdict
    }
}

/// A 64-bit digest of a reply's burst count and per-group costs.
#[must_use]
pub fn fingerprint(bursts: u64, per_group: &[CostBreakdown]) -> u64 {
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    per_group.iter().fold(mix(0x51_7C_C1_B7, bursts), |h, c| {
        mix(mix(h, c.zeros), c.transitions)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Workload;

    fn reply_for(session: &mut BusSession, payload: &[u8]) -> EncodeReply {
        let mut reply = EncodeReply::new();
        reply.bursts = session
            .encode_stream_into(payload, &mut reply.per_group, None)
            .unwrap();
        reply
    }

    #[test]
    fn replay_accepts_true_replies_and_flags_wrong_ones() {
        let spec = Workload::DurableVerify.spec();
        let pool = Pool::generate(&spec, 3);
        let mut truth: Vec<BusSession> = (0..spec.sessions)
            .map(|_| BusSession::with_geometry(4, 8, SCHEME))
            .collect();
        let mut history = History::default();
        for k in 0..40usize {
            let session = (k % 3) as u32;
            let index = history.send(session, k);
            history.reply(index, &reply_for(&mut truth[session as usize], pool.get(k)));
        }
        let clean = history.replay(&spec, &pool, std::slice::from_ref(&(10..40)), 2);
        assert_eq!(clean, history.replay(&spec, &pool, &[10..20, 20..40], 1));
        assert_eq!(clean.attempted, 30);
        assert_eq!((clean.failed, clean.wrong), (0, 0));
        assert_eq!(clean.bursts, 30 * 16);
        assert!(clean.saved_per_burst() > 0.0, "{clean:?}");

        // A reply computed from the wrong state is caught.
        let index = history.send(0, 99);
        history.reply(index, &reply_for(&mut truth[1], pool.get(99)));
        // A refusal leaves the session where it was; an error poisons it.
        let refused = history.send(2, 5);
        history.error(refused, ErrorCode::Overloaded);
        let failed = history.send(1, 6);
        history.error(failed, ErrorCode::VerifyMismatch);
        let after = history.send(1, 7);
        history.reply(after, &reply_for(&mut truth[1], pool.get(7)));
        let verdict = history.replay(&spec, &pool, &[40..42, 42..44], 2);
        assert_eq!(verdict.attempted, 4);
        assert_eq!(verdict.failed, 4);
        assert_eq!(verdict.wrong, 3);
    }

    #[test]
    fn replay_starts_every_session_fresh_after_a_restart() {
        let spec = Workload::BatchLocal.spec();
        let pool = Pool::generate(&spec, 5);
        let mut history = History::default();
        for run in 0..2 {
            // A new engine: its session starts from the idle bus again.
            history.restart();
            let mut truth = BusSession::with_geometry(4, 8, SCHEME);
            for k in 0..5 {
                let index = history.send(0, k);
                history.reply(index, &reply_for(&mut truth, pool.get(k)));
            }
            assert_eq!(history.len(), 5 * (run + 1));
        }
        let verdict = history.replay(&spec, &pool, &[2..5, 7..10], 1);
        assert_eq!(
            (verdict.attempted, verdict.failed, verdict.wrong),
            (6, 0, 0)
        );
        assert_eq!(verdict.bursts, 6 * 1024);

        // Without the mark, the second run's replies look wrong.
        let mut unmarked = History::default();
        for _ in 0..2 {
            let mut truth = BusSession::with_geometry(4, 8, SCHEME);
            for k in 0..5 {
                let index = unmarked.send(0, k);
                unmarked.reply(index, &reply_for(&mut truth, pool.get(k)));
            }
        }
        assert!(unmarked.replay(&spec, &pool, &[0..5, 5..10], 1).wrong > 0);
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let costs = [CostBreakdown::new(3, 4), CostBreakdown::new(5, 6)];
        let base = fingerprint(2, &costs);
        assert_ne!(base, fingerprint(3, &costs));
        assert_ne!(base, fingerprint(2, &[costs[0], CostBreakdown::new(5, 7)]));
        assert_ne!(base, fingerprint(2, &[costs[1], costs[0]]));
    }
}
