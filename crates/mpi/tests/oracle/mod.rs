//! Linear reference collectives: the textbook O(p) algorithms, written
//! over nothing but the public `send`/`recv`, so no collective dispatch can
//! reach them and no library algorithm shares a line with them. The
//! equivalence suites compare every library collective against these; the
//! `overhead` bench times them as the "linear" side of its tree-vs-linear
//! cases. Included by path from `tests/collectives_vs_oracle.rs`,
//! `crates/mpi/tests/socket_backend.rs` and
//! `crates/bench/benches/overhead.rs` (not every includer uses every
//! function).
#![allow(dead_code)]

use kamping_mpi::{ByteOp, RawComm};

/// User tag of all oracle traffic. Each function is collective and FIFO per
/// (source, tag) keeps successive calls apart.
const TAG: kamping_mpi::Tag = 0x0AC1E;

/// Centralized barrier: everyone signals rank 0, rank 0 releases everyone.
pub fn barrier(comm: &RawComm) {
    if comm.rank() == 0 {
        for src in 1..comm.size() {
            comm.recv(src, TAG).unwrap();
        }
        for dest in 1..comm.size() {
            comm.send(dest, TAG, &[]).unwrap();
        }
    } else {
        comm.send(0, TAG, &[]).unwrap();
        comm.recv(0, TAG).unwrap();
    }
}

/// Linear broadcast: the root sends one copy per rank.
pub fn bcast(comm: &RawComm, buf: &mut Vec<u8>, root: usize) {
    if comm.rank() == root {
        for dest in (0..comm.size()).filter(|&d| d != root) {
            comm.send(dest, TAG, buf).unwrap();
        }
    } else {
        *buf = comm.recv(root, TAG).unwrap().0;
    }
}

/// Linear reduce: the root folds every rank's buffer in rank order. The
/// combine order differs from a tree's, so results match only for
/// associative and commutative operators — which is also MPI's requirement
/// for predefined reductions. Non-root buffers are left untouched.
pub fn reduce(comm: &RawComm, buf: &mut [u8], op: ByteOp<'_>, elem_size: usize, root: usize) {
    if comm.rank() != root {
        comm.send(root, TAG, buf).unwrap();
        return;
    }
    for src in (0..comm.size()).filter(|&s| s != root) {
        let part = comm.recv(src, TAG).unwrap().0;
        assert_eq!(part.len(), buf.len(), "reduce buffers differ in length");
        for (a, r) in buf.chunks_mut(elem_size).zip(part.chunks(elem_size)) {
            op(a, r);
        }
    }
}

/// Direct allgatherv: every rank sends its block to every peer — p(p − 1)
/// messages. Returns the rank-ordered concatenation.
pub fn allgatherv(comm: &RawComm, send: &[u8]) -> Vec<u8> {
    let peers = || (0..comm.size()).filter(|&r| r != comm.rank());
    for dest in peers() {
        comm.send(dest, TAG, send).unwrap();
    }
    let mut out = Vec::new();
    for src in 0..comm.size() {
        if src == comm.rank() {
            out.extend_from_slice(send);
        } else {
            out.extend_from_slice(&comm.recv(src, TAG).unwrap().0);
        }
    }
    out
}

/// Direct fixed-size all-to-all: block `d` of `send` goes to rank `d`.
pub fn alltoall(comm: &RawComm, send: &[u8]) -> Vec<u8> {
    let block = send.len() / comm.size();
    let mine = |r: usize| &send[r * block..(r + 1) * block];
    for dest in (0..comm.size()).filter(|&d| d != comm.rank()) {
        comm.send(dest, TAG, mine(dest)).unwrap();
    }
    let mut out = Vec::with_capacity(send.len());
    for src in 0..comm.size() {
        if src == comm.rank() {
            out.extend_from_slice(mine(src));
        } else {
            out.extend_from_slice(&comm.recv(src, TAG).unwrap().0);
        }
    }
    out
}
