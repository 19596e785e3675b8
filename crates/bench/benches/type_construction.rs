//! §III-D4 as a Criterion bench: sensible defaults for type construction.
//!
//! Three ways to ship an array of structs:
//! * **contiguous bytes** — the KaMPIng default for trivially-copyable,
//!   padding-free types (one memcpy each way);
//! * **field-wise struct type** — `MPI_Type_create_struct`-style
//!   (`TypeDesc::Struct`), skipping the alignment gaps on the wire at the
//!   cost of per-field copy loops;
//! * **serialization** — the fully general path, with its "non-negligible
//!   overhead" the paper cites as the reason serialization stays opt-in.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kamping::prelude::*;
use kamping_bench::time_world_custom;
use kamping_serial::serial_struct;

kamping::pod_struct! {
    /// A padding-free record (eligible for the contiguous default).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Packed {
        id: u64,
        value: f64,
        weight: f64,
    }
}
serial_struct!(Packed { id, value, weight });

/// The same record, gappy: u8 + padding forces the field-wise path.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
struct Gappy {
    tag: u8,
    // 7 padding bytes
    value: f64,
    weight: f64,
}
serial_struct!(Gappy { tag, value, weight });

fn packed_data(n: usize) -> Vec<Packed> {
    (0..n)
        .map(|i| Packed {
            id: i as u64,
            value: i as f64,
            weight: 1.0 / (i + 1) as f64,
        })
        .collect()
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn bench_type_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("type_construction");
    for &n in &[256usize, 8192] {
        // Contiguous-bytes default (PodType).
        g.bench_with_input(BenchmarkId::new("contiguous_pod", n), &n, |b, &n| {
            b.iter_custom(|iters| {
                time_world_custom(2, |comm| {
                    let data = packed_data(n);
                    comm.barrier().unwrap();
                    let start = Instant::now();
                    for _ in 0..iters {
                        if comm.rank() == 0 {
                            comm.send(send_buf(&data), destination(1)).call().unwrap();
                        } else {
                            let (r, _) = comm.recv::<Packed>(source(0)).call().unwrap();
                            std::hint::black_box(&r);
                        }
                    }
                    comm.barrier().unwrap();
                    start.elapsed()
                })
            })
        });
        // Field-wise derived struct type over the gappy layout.
        g.bench_with_input(BenchmarkId::new("struct_type_fieldwise", n), &n, |b, &n| {
            b.iter_custom(|iters| {
                time_world_custom(2, |comm| {
                    let data: Vec<Gappy> = (0..n)
                        .map(|i| Gappy {
                            tag: i as u8,
                            value: i as f64,
                            weight: 0.5,
                        })
                        .collect();
                    let desc = kamping::struct_desc!(Gappy {
                        tag: u8,
                        value: f64,
                        weight: f64
                    });
                    comm.barrier().unwrap();
                    let start = Instant::now();
                    for _ in 0..iters {
                        if comm.rank() == 0 {
                            // SAFETY: only the declared field ranges are read.
                            let raw = unsafe {
                                std::slice::from_raw_parts(
                                    data.as_ptr().cast::<u8>(),
                                    std::mem::size_of_val(&data[..]),
                                )
                            };
                            let wire = desc.pack_n(raw, n).unwrap();
                            comm.raw().send_owned(1, 0, wire).unwrap();
                        } else {
                            let (wire, _) = comm.raw().recv(0, 0).unwrap();
                            let mut out = vec![0u8; std::mem::size_of::<Gappy>() * n];
                            desc.unpack_n(&wire, &mut out, n).unwrap();
                            std::hint::black_box(&out);
                        }
                    }
                    comm.barrier().unwrap();
                    start.elapsed()
                })
            })
        });
        // Serialization (the general path).
        g.bench_with_input(BenchmarkId::new("serialized", n), &n, |b, &n| {
            b.iter_custom(|iters| {
                time_world_custom(2, |comm| {
                    let data = packed_data(n);
                    comm.barrier().unwrap();
                    let start = Instant::now();
                    for _ in 0..iters {
                        if comm.rank() == 0 {
                            comm.send_object(as_serialized(&data), destination(1))
                                .unwrap();
                        } else {
                            let r = comm
                                .recv_object(as_deserializable::<Vec<Packed>>(), source(0))
                                .unwrap();
                            std::hint::black_box(&r);
                        }
                    }
                    comm.barrier().unwrap();
                    start.elapsed()
                })
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_type_paths
}
criterion_main!(benches);
