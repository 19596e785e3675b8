//! `p2p-small-shm`: 8-byte echo between two rank threads.
//!
//! Rank 0 sends counter words, rank 1 answers each with the word plus
//! one. The typed variant goes through `Communicator::send/recv` with
//! every parameter named (tag, count), the plain variant through
//! `RawComm::send/recv` with the byte conversion written out. One op is
//! one echo completed (ping sent, pong received and checked); a latency
//! sample times a batch of 32 so the two clock reads stay below 1 % of
//! what they bracket.
//!
//! The echo is *pipelined*: rank 0 keeps [`DEPTH`] pings outstanding, so
//! a receive normally finds its message queued. A strict one-at-a-time
//! ping-pong on this substrate is bistable — a receiver that waits longer
//! than the mailbox's four-yield burst parks on a futex, the ~17 µs wake
//! makes its peer park too, and the pair stays at ~35 µs per round trip
//! until luck brings it back to ~1.9 µs. The share of time spent in either
//! state varies by ±20 % between identical runs, so no mean or median of
//! it can carry a regression bound. With 64 echoes in flight a parked
//! rank wakes to a full lane and the peer never runs dry meanwhile: the
//! slow state cannot sustain itself, what remains is the per-message
//! cost of `core`, `mpi.p2p` and the mailbox — which is what this
//! workload exists to expose. Park/wake cost is measured on its own as
//! `mpi.transport.park_wake_us`.

use std::time::Instant;

use kamping::prelude::*;
use rand::RngCore;

use super::{Outcome, Variant, Workload};
use crate::err;
use crate::inputs;
use crate::oracle::echo_ok;
use crate::span::Tracer;

const PING_TAG: u32 = 1;
const PONG_TAG: u32 = 2;
/// Echoes in flight.
const DEPTH: usize = 64;
/// Echoes per latency sample.
const BATCH: u64 = 32;

pub struct P2pSmall {
    /// Next word to send; seeded so runs with different seeds carry
    /// different bytes.
    word: u64,
    op_id: u32,
}

/// Sends `word` to `dest` through the chosen API.
fn send_word<T: Tracer>(
    comm: &Communicator,
    variant: Variant,
    dest: usize,
    tag: u32,
    word: u64,
    tr: &mut T,
) -> Result<(), String> {
    match variant {
        Variant::Typed => {
            let s = tr.enter("core.send");
            comm.send(send_buf(&[word]), destination(dest))
                .tag(tag)
                .call()
                .map_err(err("typed send"))?;
            tr.exit(s);
        }
        Variant::Plain => {
            let s = tr.enter("mpi.p2p.send");
            comm.raw()
                .send(dest, tag, &word.to_le_bytes())
                .map_err(err("plain send"))?;
            tr.exit(s);
        }
    }
    Ok(())
}

/// Receives one word from `src` through the chosen API.
fn recv_word<T: Tracer>(
    comm: &Communicator,
    variant: Variant,
    src: usize,
    tag: u32,
    tr: &mut T,
) -> Result<u64, String> {
    match variant {
        Variant::Typed => {
            let s = tr.enter("core.recv");
            let (words, _) = comm
                .recv::<u64>(source(src))
                .tag(tag)
                .recv_count(1)
                .call()
                .map_err(err("typed recv"))?;
            tr.exit(s);
            Ok(words[0])
        }
        Variant::Plain => {
            let s = tr.enter("mpi.p2p.recv");
            let (bytes, _) = comm.raw().recv(src, tag).map_err(err("plain recv"))?;
            tr.exit(s);
            word_of(&bytes)
        }
    }
}

fn word_of(bytes: &[u8]) -> Result<u64, String> {
    bytes
        .try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| format!("plain recv: expected 8 bytes, got {}", bytes.len()))
}

impl Workload for P2pSmall {
    const WARMUP_SAMPLES: usize = 3000;

    fn ops_per_sample(&self) -> u64 {
        BATCH
    }

    fn ops_per_root_span(&self) -> u64 {
        1
    }

    fn setup(_comm: &Communicator, seed: u64) -> Result<Self, String> {
        Ok(P2pSmall {
            word: inputs::rng(seed, "p2p-small-shm", 0).next_u64(),
            op_id: 0,
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
        let step = |w: u64| w.wrapping_add(0x9e37_79b9);
        if comm.rank() == 0 {
            // `self.word` is the next ping to send, `expect` the ping whose
            // pong is due next; they stay DEPTH apart.
            let mut expect = self.word;
            for _ in 0..DEPTH {
                send_word(comm, variant, 1, PING_TAG, self.word, tr)?;
                self.word = step(self.word);
            }
            for _ in 0..samples {
                let start = Instant::now();
                for _ in 0..BATCH {
                    tr.set_op(self.op_id);
                    let op = tr.enter("op");
                    let pong = recv_word(comm, variant, 1, PONG_TAG, tr)?;
                    send_word(comm, variant, 1, PING_TAG, self.word, tr)?;
                    tr.exit(op);
                    out.failed += !echo_ok(expect, pong) as u64;
                    expect = step(expect);
                    self.word = step(self.word);
                    self.op_id = self.op_id.wrapping_add(1);
                }
                lat_us.push(start.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
            }
            for _ in 0..DEPTH {
                let pong = recv_word(comm, variant, 1, PONG_TAG, tr)?;
                out.failed += !echo_ok(expect, pong) as u64;
                expect = step(expect);
            }
        } else {
            let echo = |this: &mut Self, out: &mut Outcome, tr: &mut T| -> Result<(), String> {
                let ping = recv_word(comm, variant, 0, PING_TAG, tr)?;
                send_word(comm, variant, 0, PONG_TAG, ping.wrapping_add(1), tr)?;
                out.failed += (ping != this.word) as u64;
                this.word = step(this.word);
                Ok(())
            };
            for _ in 0..samples {
                let start = Instant::now();
                for _ in 0..BATCH {
                    tr.set_op(self.op_id);
                    let op = tr.enter("op");
                    echo(self, &mut out, tr)?;
                    tr.exit(op);
                    self.op_id = self.op_id.wrapping_add(1);
                }
                lat_us.push(start.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
            }
            for _ in 0..DEPTH {
                echo(self, &mut out, tr)?;
            }
        }
        out.payload_bytes = samples as u64 * BATCH * 8;
        Ok(out)
    }
}
