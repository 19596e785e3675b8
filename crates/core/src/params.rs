//! Named parameters (paper §III-A, §III-B).
//!
//! A communication call takes its *required* parameters as the arguments
//! of the method that starts it — built by the factory functions here:
//! [`send_buf`], [`send_recv_buf`], [`send_counts`], [`destination`],
//! [`source`] — and its *optional* ones as named methods of the one call
//! engine, [`crate::call::Call`], in any order. What was supplied is part
//! of the call's *type*: every slot of a `Call` is either [`Unset`] or one
//! of the slot types of this module, so
//!
//! * a required-but-missing parameter, or a parameter the operation would
//!   ignore, is a **compile error** (§III-G);
//! * the code that computes a defaulted parameter is only instantiated for
//!   calls that actually omit it (monomorphization — the Rust equivalent
//!   of the paper's `constexpr if` claim in §III-H);
//! * `*_out()` parameters change the *return type* of the call: requested
//!   values come back by value in the result object (§III-B), never
//!   through out-pointers.
//!
//! The traits in this module (`*Slot`) are the extraction machinery the
//! call bodies use; application code only touches the factory functions
//! and the methods of `Call`.

use std::marker::PhantomData;
use std::mem::MaybeUninit;

use kamping_mpi::transport::Sink;

use crate::error::{KResult, KampingError};
use crate::resize::{NoResize, ResizePolicy, ResizeToFit};
use crate::types::{bytes_to_pods, fill_pod_vec_from_bytes, pod_as_bytes, PodType};

/// Type-level marker: this parameter slot was not supplied.
pub struct Unset;

/// Type-level marker: this out-parameter was not requested, so the result
/// object carries no value for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Absent;

// ---------------------------------------------------------------------------
// send buffer
// ---------------------------------------------------------------------------

/// The data a rank contributes to an operation (in-parameter).
pub struct SendBuf<S> {
    pub(crate) data: S,
}

/// Borrows `data` as the send buffer.
pub fn send_buf<T: PodType>(data: &[T]) -> SendBuf<&[T]> {
    SendBuf { data }
}

/// Moves `data` into the call (ownership transfer, §III-E); blocking calls
/// drop it on completion, non-blocking calls return it from `wait()`.
pub fn send_buf_owned<T: PodType>(data: Vec<T>) -> SendBuf<Vec<T>> {
    SendBuf { data }
}

/// Extraction of a send buffer slot.
pub trait SendBufSlot<T: PodType> {
    /// The contributed elements.
    fn slice(&self) -> &[T];
    /// Recovers the owned buffer, if the parameter transferred ownership.
    fn reclaim(self) -> Option<Vec<T>>;
}

impl<T: PodType> SendBufSlot<T> for SendBuf<&[T]> {
    fn slice(&self) -> &[T] {
        self.data
    }
    fn reclaim(self) -> Option<Vec<T>> {
        None
    }
}

impl<T: PodType> SendBufSlot<T> for SendBuf<Vec<T>> {
    fn slice(&self) -> &[T] {
        &self.data
    }
    fn reclaim(self) -> Option<Vec<T>> {
        Some(self.data)
    }
}

// ---------------------------------------------------------------------------
// send-recv buffer (in-place operations, §III-G)
// ---------------------------------------------------------------------------

/// A buffer that is both input and output — the safe spelling of
/// `MPI_IN_PLACE`. Passing `send_recv_buf` instead of `send_buf` selects
/// the in-place variant of an operation; parameters that the in-place call
/// would ignore are not accepted by it (compile-time enforcement of §III-G).
pub struct SendRecvBuf<S> {
    pub(crate) data: S,
}

/// Borrows `data` mutably as a combined send+receive buffer.
pub fn send_recv_buf<T: PodType>(data: &mut Vec<T>) -> SendRecvBuf<&mut Vec<T>> {
    SendRecvBuf { data }
}

/// Moves `data` into an in-place call; the result returns it by value
/// (enables `data = comm.allgather_inplace(send_recv_buf_owned(data))…`).
pub fn send_recv_buf_owned<T: PodType>(data: Vec<T>) -> SendRecvBuf<Vec<T>> {
    SendRecvBuf { data }
}

/// Extraction of a send-recv buffer slot.
pub trait SendRecvBufSlot<T: PodType> {
    /// What the finished operation hands back (`()` for borrowed buffers,
    /// the buffer itself for owned ones).
    type Out;
    /// Read access to the current contents.
    fn slice(&self) -> &[T];
    /// Replaces the contents with `bytes` (decoded) and finalizes.
    fn replace(self, bytes: &[u8]) -> KResult<Self::Out>;
    /// Finalizes without changing the contents (used where input and
    /// output provably coincide, e.g. at a broadcast's root — no copy).
    fn keep(self) -> Self::Out;
}

impl<T: PodType> SendRecvBufSlot<T> for SendRecvBuf<&mut Vec<T>> {
    type Out = ();
    fn slice(&self) -> &[T] {
        self.data
    }
    fn replace(self, bytes: &[u8]) -> KResult<()> {
        fill_pod_vec_from_bytes(self.data, bytes)
    }
    fn keep(self) {}
}

impl<T: PodType> SendRecvBufSlot<T> for SendRecvBuf<Vec<T>> {
    type Out = Vec<T>;
    fn slice(&self) -> &[T] {
        &self.data
    }
    fn replace(mut self, bytes: &[u8]) -> KResult<Vec<T>> {
        fill_pod_vec_from_bytes(&mut self.data, bytes)?;
        Ok(self.data)
    }
    fn keep(self) -> Vec<T> {
        self.data
    }
}

/// The buffer slot of a reduction: a `send_buf` (the result is returned as
/// a fresh vector) or a `send_recv_buf` (the result replaces its contents),
/// so the in-place reductions are the same operations, not more of them.
pub trait ReduceBufSlot<T: PodType> {
    /// What the finished reduction hands back.
    type Out;
    /// The elements this rank contributes.
    fn input(&self) -> &[T];
    /// Delivers the reduced `bytes` and finalizes the slot.
    fn deliver(self, bytes: &[u8]) -> KResult<Self::Out>;
}

impl<T: PodType, X> ReduceBufSlot<T> for SendBuf<X>
where
    SendBuf<X>: SendBufSlot<T>,
{
    type Out = Vec<T>;
    fn input(&self) -> &[T] {
        self.slice()
    }
    fn deliver(self, bytes: &[u8]) -> KResult<Vec<T>> {
        bytes_to_pods(bytes)
    }
}

impl<T: PodType, X> ReduceBufSlot<T> for SendRecvBuf<X>
where
    SendRecvBuf<X>: SendRecvBufSlot<T>,
{
    type Out = <Self as SendRecvBufSlot<T>>::Out;
    fn input(&self) -> &[T] {
        self.slice()
    }
    fn deliver(self, bytes: &[u8]) -> KResult<Self::Out> {
        self.replace(bytes)
    }
}

// ---------------------------------------------------------------------------
// receive buffer
// ---------------------------------------------------------------------------

/// Where received data goes (out-parameter with a resize policy, §III-C).
pub struct RecvBuf<B, P = NoResize> {
    pub(crate) buf: B,
    pub(crate) _policy: PhantomData<P>,
}

impl<B, P> RecvBuf<B, P> {
    pub(crate) fn new(buf: B) -> Self {
        RecvBuf {
            buf,
            _policy: PhantomData,
        }
    }
}

/// A receive buffer slot's vector as the owned destination the substrate
/// writes into ([`Sink`]): the policy `P` makes the room, once the length
/// of the message is known, and the bytes then land in the vector itself —
/// from an envelope, or straight off the wire when the receive was posted.
pub(crate) struct VecSink<T, P> {
    buf: Vec<T>,
    /// Elements of the payload last made room for.
    pub(crate) n: usize,
    /// Why `reserve` refused a payload, if it did.
    refused: Option<KampingError>,
    /// Whether making room allocated.
    pub(crate) grew: bool,
    _policy: PhantomData<P>,
}

impl<T, P> Default for VecSink<T, P> {
    fn default() -> Self {
        VecSink {
            buf: Vec::new(),
            n: 0,
            refused: None,
            grew: false,
            _policy: PhantomData,
        }
    }
}

impl<T: PodType, P: ResizePolicy> Sink for VecSink<T, P> {
    fn reserve(&mut self, len: usize) -> bool {
        let capacity = self.buf.capacity();
        self.n = len.checked_div(T::SIZE).unwrap_or(0);
        let fits = if self.n * T::SIZE != len {
            Err(KampingError::InvalidArgument(
                "byte length not a multiple of element size",
            ))
        } else if P::EXACT_FIT {
            // No zero-fill: the elements are written exactly once.
            self.buf.clear();
            self.buf.reserve(self.n);
            Ok(())
        } else {
            P::prepare(&mut self.buf, self.n, T::zeroed())
        };
        self.grew = self.buf.capacity() != capacity;
        self.refused = fits.err();
        self.refused.is_none()
    }

    fn spare(&mut self, len: usize) -> &mut [MaybeUninit<u8>] {
        assert!(len == self.n * T::SIZE && self.n <= self.buf.capacity());
        // SAFETY: the first `n` elements lie within the allocation
        // (asserted), `T` has no padding, and `MaybeUninit<u8>` may hold
        // whatever is there now.
        unsafe { std::slice::from_raw_parts_mut(self.buf.as_mut_ptr().cast(), len) }
    }

    unsafe fn commit(&mut self, _len: usize) {
        if P::EXACT_FIT {
            // SAFETY: the caller wrote all `n` elements' bytes, and every
            // bit pattern is a valid `T`.
            self.buf.set_len(self.n);
        }
    }

    fn filled(&self, _len: usize) -> &[u8] {
        pod_as_bytes(&self.buf[..self.n])
    }
}

/// Extraction of a receive buffer slot.
pub trait RecvBufSlot<T: PodType>: Sized {
    /// `Vec<T>` when the call returns the data by value, `()` when it was
    /// written through a caller-provided reference.
    type Out;
    /// How the slot's vector adapts to the incoming size.
    type Policy: ResizePolicy;
    /// Lends out the slot's vector (an empty one if the slot is unset).
    fn lend(&mut self) -> Vec<T>;
    /// Takes the vector back, `n` elements received, and finalizes the slot.
    fn restore(self, buf: Vec<T>, n: usize) -> Self::Out;

    /// Decodes `bytes` into the destination and finalizes the slot.
    fn place(self, bytes: &[u8]) -> KResult<Self::Out> {
        // A refusal is the sink's to report (`fill_slot`).
        let put = |sink: &mut VecSink<T, Self::Policy>| Ok::<_, KampingError>(sink.put(bytes));
        fill_slot(self, put).map(|(out, _)| out)
    }
}

/// Receives into `slot` through `fill`, which is handed the slot's vector
/// as a sink; returns the finalized slot and `fill`'s own result. The
/// vector goes back to its slot whatever happens.
pub(crate) fn fill_slot<T: PodType, R: RecvBufSlot<T>, X, E: Into<KampingError>>(
    mut slot: R,
    fill: impl FnOnce(&mut VecSink<T, R::Policy>) -> Result<X, E>,
) -> KResult<(R::Out, X)> {
    let mut sink = VecSink {
        buf: slot.lend(),
        ..VecSink::default()
    };
    let filled = fill(&mut sink);
    let out = slot.restore(sink.buf, sink.n);
    let x = filled.map_err(Into::into)?;
    match sink.refused {
        Some(refusal) => Err(refusal),
        None => Ok((out, x)),
    }
}

impl<T: PodType> RecvBufSlot<T> for Unset {
    type Out = Vec<T>;
    type Policy = ResizeToFit;
    fn lend(&mut self) -> Vec<T> {
        Vec::new()
    }
    fn restore(self, buf: Vec<T>, _n: usize) -> Vec<T> {
        buf
    }
}

impl<T: PodType, P: ResizePolicy> RecvBufSlot<T> for RecvBuf<&mut Vec<T>, P> {
    type Out = ();
    type Policy = P;
    fn lend(&mut self) -> Vec<T> {
        std::mem::take(self.buf)
    }
    fn restore(self, buf: Vec<T>, _n: usize) {
        *self.buf = buf;
    }
}

impl<T: PodType, P: ResizePolicy> RecvBufSlot<T> for RecvBuf<Vec<T>, P> {
    type Out = Vec<T>;
    type Policy = P;
    fn lend(&mut self) -> Vec<T> {
        std::mem::take(&mut self.buf)
    }
    fn restore(self, mut buf: Vec<T>, n: usize) -> Vec<T> {
        if !P::EXACT_FIT {
            buf.truncate(n);
        }
        buf
    }
}

// ---------------------------------------------------------------------------
// counts / displacements (element units)
// ---------------------------------------------------------------------------

/// Per-rank element counts or displacements supplied by the caller. Which
/// of the four it is (send/receive × counts/displacements) is decided by the
/// slot of the call it sits in.
pub struct Counts<C> {
    pub(crate) values: C,
}

/// Marker in a count or displacement slot: compute the values and return
/// them by value in the result object (§III-B).
pub struct CountsOut;

/// Names the number of elements sent to each rank, by reference.
pub fn send_counts(values: &[usize]) -> Counts<&[usize]> {
    Counts { values }
}

/// Names the number of elements sent to each rank, by value.
pub fn send_counts_owned(values: Vec<usize>) -> Counts<Vec<usize>> {
    Counts { values }
}

/// Extraction of a count or displacement slot.
pub trait CountSlot {
    /// Statically true when the caller supplied values (the
    /// compute-default path is then never instantiated).
    const PROVIDED: bool;
    /// `Vec<usize>` when the values were requested with `*_out()`,
    /// [`Absent`] otherwise.
    type Out;
    /// The supplied values; only called when `PROVIDED`.
    fn provided(&self) -> &[usize] {
        unreachable!("slot not provided")
    }
    /// Fills the result slot: evaluates `values` only when requested.
    fn out(values: impl FnOnce() -> Vec<usize>) -> Self::Out;
}

impl CountSlot for Unset {
    const PROVIDED: bool = false;
    type Out = Absent;
    fn out(_values: impl FnOnce() -> Vec<usize>) -> Absent {
        Absent
    }
}

impl CountSlot for CountsOut {
    const PROVIDED: bool = false;
    type Out = Vec<usize>;
    fn out(values: impl FnOnce() -> Vec<usize>) -> Vec<usize> {
        values()
    }
}

impl<C: AsRef<[usize]>> CountSlot for Counts<C> {
    const PROVIDED: bool = true;
    type Out = Absent;
    fn provided(&self) -> &[usize] {
        self.values.as_ref()
    }
    fn out(_values: impl FnOnce() -> Vec<usize>) -> Absent {
        Absent
    }
}

// ---------------------------------------------------------------------------
// scalar parameters
// ---------------------------------------------------------------------------

/// The destination rank of a point-to-point send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Destination(pub usize);

/// Names the destination of a send.
pub fn destination(rank: usize) -> Destination {
    Destination(rank)
}

/// The source rank of a receive (possibly the any-source wildcard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Source(pub usize);

/// Names the source of a receive.
pub fn source(rank: usize) -> Source {
    Source(rank)
}

/// Matches a message from any source.
pub fn any_source() -> Source {
    Source(kamping_mpi::ANY_SOURCE)
}

/// A message tag, as a positional parameter ([`crate::Communicator::iprobe`]);
/// calls that default the tag name it with their `.tag(..)` method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagParam(pub kamping_mpi::Tag);

/// Names a message tag.
pub fn tag(value: kamping_mpi::Tag) -> TagParam {
    TagParam(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resize::ResizeToFit;

    #[test]
    fn send_buf_borrow_and_own() {
        let v = vec![1u32, 2];
        let p = send_buf(&v);
        assert_eq!(SendBufSlot::<u32>::slice(&p), &[1, 2]);
        assert!(p.reclaim().is_none());

        let p = send_buf_owned(v);
        assert_eq!(SendBufSlot::<u32>::slice(&p), &[1, 2]);
        assert_eq!(p.reclaim(), Some(vec![1, 2]));
    }

    #[test]
    fn recv_buf_slots_place_bytes() {
        let wire: Vec<u8> = [7u32, 8].iter().flat_map(|v| v.to_le_bytes()).collect();

        // Unset: fresh vector by value.
        let out: Vec<u32> = RecvBufSlot::<u32>::place(Unset, &wire).unwrap();
        assert_eq!(out, vec![7, 8]);

        // Borrowed with NoResize: too small errors, exact fits.
        let mut buf = vec![0u32; 1];
        assert!(RecvBuf::<_, NoResize>::new(&mut buf).place(&wire).is_err());
        let mut buf = vec![0u32; 2];
        RecvBuf::<_, NoResize>::new(&mut buf).place(&wire).unwrap();
        assert_eq!(buf, vec![7, 8]);

        // Borrowed with ResizeToFit: grows.
        let mut buf: Vec<u32> = Vec::new();
        RecvBuf::<_, ResizeToFit>::new(&mut buf)
            .place(&wire)
            .unwrap();
        assert_eq!(buf, vec![7, 8]);

        // Owned: capacity reused, returned by value.
        let buf = Vec::with_capacity(16);
        let cap_before = buf.capacity();
        let out = RecvBuf::<Vec<u32>, ResizeToFit>::new(buf)
            .place(&wire)
            .unwrap();
        assert_eq!(out, vec![7, 8]);
        assert_eq!(out.capacity(), cap_before);
    }

    #[test]
    fn count_slots_report_presence() {
        fn provided<S: CountSlot>(_: &S) -> bool {
            S::PROVIDED
        }
        assert!(!provided(&Unset));
        assert!(!provided(&CountsOut));
        let c = [1usize, 2];
        assert!(provided(&send_counts(&c)));
        assert_eq!(send_counts(&c).provided(), &[1, 2]);
        assert_eq!(send_counts_owned(vec![3, 4]).provided(), &[3, 4]);
    }

    #[test]
    fn out_slots_wrap_or_discard() {
        assert_eq!(<CountsOut as CountSlot>::out(|| vec![1]), vec![1]);
        let never = || -> Vec<usize> { unreachable!("not requested, not computed") };
        let _: Absent = <Unset as CountSlot>::out(never);
        let _: Absent = <Counts<&[usize]> as CountSlot>::out(never);
    }

    #[test]
    fn send_recv_buf_replaces_contents() {
        let wire: Vec<u8> = [5u64, 6, 7].iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut v = vec![1u64];
        send_recv_buf(&mut v).replace(&wire).unwrap();
        assert_eq!(v, vec![5, 6, 7]);

        let out = send_recv_buf_owned(vec![9u64; 10]).replace(&wire).unwrap();
        assert_eq!(out, vec![5, 6, 7]);
    }

    #[test]
    fn scalar_params() {
        assert_eq!(destination(1), Destination(1));
        assert_eq!(source(0), Source(0));
        assert_eq!(any_source(), Source(kamping_mpi::ANY_SOURCE));
        assert_eq!(tag(9), TagParam(9));
    }
}
