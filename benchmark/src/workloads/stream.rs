//! `stream-large-ring` / `stream-large-socket`: large `Vec<u64>` messages
//! one way between two processes, one acknowledgement per window of 8.
//!
//! The script is the same for both workloads; which wire carries it is
//! decided by how the pair was launched. Every window holds the same
//! multiset of sizes (4 × 64 KiB, 2 × 256 KiB, 2 × 1 MiB) in a seeded
//! order. Each message is the seeded pattern of its size class with the
//! message's sequence number in word 0; the receiver compares every word
//! on receipt and acknowledges the window with its rejection count.
//!
//! One op is one acknowledged window, clocked on rank 0 from the first
//! send call to the arrival of the acknowledgement.

use std::time::Instant;

use kamping::prelude::*;
use kamping_mpi::RawComm;

use super::{Outcome, Variant, Workload};
use crate::err;
use crate::inputs::{self, STREAM_WINDOW};
use crate::oracle::{message_ok, stamp_message};
use crate::span::Tracer;

const DATA_TAG: u32 = 7;
const ACK_TAG: u32 = 8;

pub struct Stream {
    schedules: Vec<[u8; STREAM_WINDOW]>,
    /// One reference message per size class; the sender stamps and sends
    /// these very buffers, the receiver compares against its own copy.
    patterns: [Vec<u64>; 3],
    window: usize,
    seq: u64,
}

impl Stream {
    fn sender<T: Tracer>(
        &mut self,
        comm: &Communicator,
        variant: Variant,
        classes: [u8; STREAM_WINDOW],
        tr: &mut T,
    ) -> Result<u64, String> {
        let raw: &RawComm = comm.raw();
        for class in classes {
            let msg = &mut self.patterns[class as usize];
            stamp_message(msg, self.seq);
            self.seq += 1;
            match variant {
                Variant::Typed => {
                    let s = tr.enter("core.send");
                    comm.send(send_buf(msg), destination(1))
                        .tag(DATA_TAG)
                        .call()
                        .map_err(err("typed send"))?;
                    tr.exit(s);
                }
                Variant::Plain => {
                    let s = tr.enter("mpi.p2p.send");
                    raw.send(1, DATA_TAG, kamping::types::pod_as_bytes(msg))
                        .map_err(err("plain send"))?;
                    tr.exit(s);
                }
            }
        }
        let s = tr.enter("mpi.p2p.recv");
        let (ack, _) = raw.recv(1, ACK_TAG).map_err(err("ack recv"))?;
        tr.exit(s);
        Ok(ack
            .as_slice()
            .try_into()
            .map(u64::from_le_bytes)
            .unwrap_or(STREAM_WINDOW as u64))
    }

    fn receiver<T: Tracer>(
        &mut self,
        comm: &Communicator,
        variant: Variant,
        classes: [u8; STREAM_WINDOW],
        tr: &mut T,
    ) -> Result<u64, String> {
        let raw: &RawComm = comm.raw();
        let mut bad = 0u64;
        for class in classes {
            let words: Vec<u64> = match variant {
                Variant::Typed => {
                    let s = tr.enter("core.recv");
                    let (words, _) = comm
                        .recv::<u64>(source(0))
                        .tag(DATA_TAG)
                        .call()
                        .map_err(err("typed recv"))?;
                    tr.exit(s);
                    words
                }
                Variant::Plain => {
                    let s = tr.enter("mpi.p2p.recv");
                    let (bytes, _) = raw.recv(0, DATA_TAG).map_err(err("plain recv"))?;
                    tr.exit(s);
                    let s = tr.enter("core.bytes_to_vec");
                    let words =
                        kamping::types::bytes_to_pods(&bytes).map_err(err("plain decode"))?;
                    tr.exit(s);
                    words
                }
            };
            let s = tr.enter("oracle.check");
            bad += !message_ok(&words, &self.patterns[class as usize], self.seq) as u64;
            tr.exit(s);
            self.seq += 1;
        }
        let s = tr.enter("mpi.p2p.send");
        raw.send(0, ACK_TAG, &bad.to_le_bytes())
            .map_err(err("ack send"))?;
        tr.exit(s);
        Ok(bad)
    }
}

impl Workload for Stream {
    const WARMUP_SAMPLES: usize = 12;

    fn ops_per_sample(&self) -> u64 {
        1
    }

    fn setup(_comm: &Communicator, seed: u64) -> Result<Self, String> {
        Ok(Stream {
            schedules: inputs::stream_schedules(seed),
            patterns: [0, 1, 2].map(|c| inputs::stream_pattern(seed, c)),
            window: 0,
            seq: 0,
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
            let classes = self.schedules[self.window % self.schedules.len()];
            tr.set_op(self.window as u32);
            let start = Instant::now();
            let op = tr.enter("op");
            let bad = if comm.rank() == 0 {
                self.sender(comm, variant, classes, tr)?
            } else {
                self.receiver(comm, variant, classes, tr)?
            };
            tr.exit(op);
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
            // The ack carries the receiver's count to rank 0, which alone
            // reports it.
            if comm.rank() == 0 {
                out.failed += (bad > 0) as u64;
            }
            self.window += 1;
        }
        if comm.rank() == 1 {
            out.payload_bytes = samples as u64 * inputs::stream_window_bytes();
        }
        Ok(out)
    }
}
