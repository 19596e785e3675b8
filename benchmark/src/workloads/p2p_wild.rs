//! `p2p-wild-shm`: the mailbox with a deep unexpected queue and wildcards.
//!
//! Rank 0 posts a window of 256 × 64-byte messages whose tags are a
//! seeded shuffle of `0..256`, then waits for one acknowledgement. Rank 1
//! first takes the messages at odd send positions by exact
//! `(source, tag)`, last position first — so every take scans deep into
//! the lane — and then drains the other half with
//! `probe(ANY_SOURCE, ANY_TAG)` followed by a receive of exactly what the
//! probe reported (the serving-soak pattern). Scan depths depend only on
//! send positions, so the seed changes the tags but not the work.
//!
//! One op is one message matched; a latency sample is one window divided
//! by 256, clocked on rank 0 from first post to acknowledgement.

use std::time::Instant;

use kamping::prelude::*;
use kamping_mpi::{RawComm, ANY_SOURCE, ANY_TAG};

use super::{Outcome, Variant, Workload};
use crate::err;
use crate::inputs::{self, WILD_WINDOW};
use crate::oracle::TagLedger;
use crate::span::Tracer;

/// Payload words per message (64 bytes: above the 32-byte inline cap, so
/// the heap path of `Payload` is the one exercised).
const MSG_WORDS: usize = 8;
/// User tags of a window are offset so they never collide with the ack.
const TAG_BASE: u32 = 16;
const ACK_TAG: u32 = 1;

pub struct P2pWild {
    schedules: Vec<Vec<u32>>,
    window: usize,
    ledger: TagLedger,
    payload: [u64; MSG_WORDS],
}

/// Checks a received message against what position `tag` must carry.
fn content_ok(words: &[u64], tag: u32, window: usize) -> bool {
    words.len() == MSG_WORDS && words[0] == tag as u64 && words[1] == window as u64
}

impl P2pWild {
    fn sender<T: Tracer>(
        &mut self,
        comm: &Communicator,
        variant: Variant,
        tags: &[u32],
        tr: &mut T,
    ) -> Result<u64, String> {
        let raw: &RawComm = comm.raw();
        self.payload[1] = self.window as u64;
        for &tag in tags {
            self.payload[0] = tag as u64;
            match variant {
                Variant::Typed => {
                    let s = tr.enter("core.send");
                    comm.send(send_buf(&self.payload), destination(1))
                        .tag(TAG_BASE + tag)
                        .call()
                        .map_err(err("typed send"))?;
                    tr.exit(s);
                }
                Variant::Plain => {
                    let s = tr.enter("mpi.p2p.send");
                    raw.send(
                        1,
                        TAG_BASE + tag,
                        kamping::types::pod_as_bytes(&self.payload),
                    )
                    .map_err(err("plain send"))?;
                    tr.exit(s);
                }
            }
        }
        let s = tr.enter("mpi.p2p.recv");
        let (ack, _) = raw.recv(1, ACK_TAG).map_err(err("ack recv"))?;
        tr.exit(s);
        // The receiver reports how many messages its ledger rejected.
        Ok(ack
            .as_slice()
            .try_into()
            .map(u64::from_le_bytes)
            .unwrap_or(WILD_WINDOW as u64))
    }

    fn receiver<T: Tracer>(
        &mut self,
        comm: &Communicator,
        variant: Variant,
        tags: &[u32],
        tr: &mut T,
    ) -> Result<u64, String> {
        let raw: &RawComm = comm.raw();
        let mut bad_content = 0u64;
        let take = |source: usize, tag: u32, tr: &mut T| -> Result<(u32, bool), String> {
            match variant {
                Variant::Typed => {
                    let s = tr.enter("core.recv");
                    let (words, st) = comm
                        .recv::<u64>(kamping::source(source))
                        .tag(tag)
                        .recv_count(MSG_WORDS)
                        .call()
                        .map_err(err("typed recv"))?;
                    tr.exit(s);
                    let t = st.tag - TAG_BASE;
                    Ok((t, content_ok(&words, t, self.window)))
                }
                Variant::Plain => {
                    let s = tr.enter("mpi.p2p.recv");
                    let (bytes, st) = raw.recv(source, tag).map_err(err("plain recv"))?;
                    tr.exit(s);
                    let words: Vec<u64> =
                        kamping::types::bytes_to_pods(&bytes).map_err(err("plain decode"))?;
                    let t = st.tag - TAG_BASE;
                    Ok((t, content_ok(&words, t, self.window)))
                }
            }
        };
        // Exact half: odd send positions, last first.
        for pos in (1..tags.len()).rev().step_by(2) {
            let (t, ok) = take(0, TAG_BASE + tags[pos], tr)?;
            self.ledger.record(t);
            bad_content += !ok as u64;
        }
        // Wildcard half: whatever arrived first among the rest.
        for _ in 0..tags.len().div_ceil(2) {
            let s = tr.enter("mpi.p2p.probe");
            let st = raw.probe(ANY_SOURCE, ANY_TAG).map_err(err("probe"))?;
            tr.exit(s);
            let (t, ok) = take(st.source, st.tag, tr)?;
            self.ledger.record(t);
            bad_content += !ok as u64;
        }
        let bad = self.ledger.close_window().max(bad_content);
        let s = tr.enter("mpi.p2p.send");
        raw.send(0, ACK_TAG, &bad.to_le_bytes())
            .map_err(err("ack send"))?;
        tr.exit(s);
        Ok(bad)
    }
}

impl Workload for P2pWild {
    const WARMUP_SAMPLES: usize = 400;

    fn ops_per_sample(&self) -> u64 {
        WILD_WINDOW as u64
    }

    fn setup(_comm: &Communicator, seed: u64) -> Result<Self, String> {
        Ok(P2pWild {
            schedules: inputs::wild_tag_schedules(seed),
            window: 0,
            ledger: TagLedger::new(WILD_WINDOW),
            payload: [0; MSG_WORDS],
        })
    }

    fn run<T: Tracer>(
        &mut self,
        comm: &Communicator,
        variant: Variant,
        samples: usize,
        lat_us: &mut Vec<f64>,
        tr: &mut T,
    ) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for _ in 0..samples {
            // Borrowed out of `self` for the window (no copy inside the run).
            let slot = self.window % self.schedules.len();
            let tags = std::mem::take(&mut self.schedules[slot]);
            tr.set_op(self.window as u32);
            let start = Instant::now();
            let op = tr.enter("op");
            let bad = if comm.rank() == 0 {
                self.sender(comm, variant, &tags, tr)?
            } else {
                self.receiver(comm, variant, &tags, tr)?
            };
            tr.exit(op);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6 / WILD_WINDOW as f64);
            self.schedules[slot] = tags;
            // Both ranks learn the same count (the ack carries it); only
            // rank 0 reports it so it is not counted twice.
            if comm.rank() == 0 {
                out.failed += bad;
            }
            self.window += 1;
        }
        if comm.rank() == 1 {
            out.payload_bytes = samples as u64 * (WILD_WINDOW * MSG_WORDS * 8) as u64;
        }
        Ok(out)
    }
}
