//! The type system (paper §III-D).
//!
//! KaMPIng maps language types onto wire representations at compile time.
//! Three tiers, mirroring §III-D1..D3:
//!
//! 1. **Static types** — [`PodType`]: types that are trivially copyable
//!    with *no padding* and *no invalid bit patterns* are transmitted as
//!    their raw bytes, the "contiguous bytes" default the paper recommends
//!    (§III-D4) because it avoids per-field gather loops. Implemented for
//!    the built-in numeric types and fixed-size arrays thereof; user
//!    structs are defined through [`pod_struct!`](crate::pod_struct), which
//!    sees every field, requires each to be pod and rejects padded structs
//!    at compile time (the reflection-based safety PFR provides in C++).
//! 2. **Dynamic types** — runtime-described layouts via
//!    [`kamping_mpi::dtype::TypeDesc`]; the [`struct_desc!`](crate::struct_desc)
//!    macro builds a field-wise `TypeDesc::Struct` for padded structs
//!    (gaps are skipped on the wire, like `MPI_Type_create_struct`).
//! 3. **Serialization** — arbitrary heap-backed data through the explicit
//!    [`crate::as_serialized`] adapter (see [`crate::serialize`]).

use crate::error::{KResult, KampingError};

/// Marker for types transmitted as raw bytes.
///
/// # Safety
///
/// Implementors must guarantee, exactly like `bytemuck::Pod`:
/// * the type is `Copy` with no interior mutability or pointers/references;
/// * it has **no padding bytes** (every byte of its representation is part
///   of a field), and
/// * **every bit pattern is a valid value** (rules out `bool`, `char`,
///   enums, and NonZero types).
///
/// Define structs with [`pod_struct!`](crate::pod_struct) — it checks all
/// three requirements at compile time, so no `unsafe` is needed.
pub unsafe trait PodType: Copy + Send + 'static {
    /// Wire size of one element.
    const SIZE: usize = std::mem::size_of::<Self>();

    /// The all-zero value (valid for every `PodType` by contract).
    fn zeroed() -> Self {
        // SAFETY: PodType guarantees all bit patterns are valid.
        unsafe { std::mem::zeroed() }
    }
}

macro_rules! impl_pod_builtin {
    ($($ty:ty),+) => {
        $(
            // SAFETY: built-in numeric types have no padding and accept
            // every bit pattern.
            unsafe impl PodType for $ty {}
        )+
    };
}

impl_pod_builtin!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, usize, isize, f32, f64);

// SAFETY: arrays of pod elements are pod (no padding between elements of a
// type without padding, all bit patterns valid elementwise).
unsafe impl<T: PodType, const N: usize> PodType for [T; N] {}

/// Defines a user struct and declares it a [`PodType`].
///
/// The macro wraps the definition, so it sees every field: it emits
/// `#[repr(C)]`, requires each field type to be a [`PodType`] itself (so
/// every bit pattern of every field is valid) and asserts at compile time
/// that the field sizes sum to the struct's size, i.e. that the struct has
/// **no padding** — the case where KaMPIng's contiguous-bytes default
/// applies. Padded structs fail to compile; use
/// [`struct_desc!`](crate::struct_desc) (field-wise dynamic type) or
/// reorder/pad the fields explicitly instead.
///
/// ```
/// kamping::pod_struct! {
///     #[derive(Clone, Copy)]
///     pub struct Particle {
///         pub position: [f64; 3],
///         pub mass: f64,
///     }
/// }
/// let bytes = kamping::types::pod_as_bytes(&[Particle { position: [0.0; 3], mass: 1.0 }]);
/// assert_eq!(bytes.len(), 32);
/// ```
///
/// A field that is not itself pod does not compile — a reference, which
/// decoding arbitrary bytes would forge:
///
/// ```compile_fail
/// kamping::pod_struct! { #[derive(Clone, Copy)] struct Forged { r: &'static u64 } }
/// ```
///
/// nor a `bool`, which has invalid bit patterns:
///
/// ```compile_fail
/// kamping::pod_struct! { #[derive(Clone, Copy)] struct Flagged { flag: bool, value: u8 } }
/// ```
///
/// nor a struct with padding:
///
/// ```compile_fail
/// kamping::pod_struct! { #[derive(Clone, Copy)] struct Gappy { flag: u8, value: u64 } }
/// ```
#[macro_export]
macro_rules! pod_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[repr(C)]
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)+
        }
        const _: () = {
            const fn field_is_pod<T: $crate::types::PodType>() {}
            $(field_is_pod::<$fty>();)+
            assert!(
                ::std::mem::size_of::<$name>() == 0usize $(+ ::std::mem::size_of::<$fty>())+,
                "pod_struct!: struct has padding bytes; use kamping::struct_desc! instead"
            );
        };
        // SAFETY: `repr(C)` lays the fields out in order; each is a
        // `PodType` (no padding inside, every bit pattern valid) and their
        // sizes sum to the struct's, so there is no padding between or
        // after them either.
        unsafe impl $crate::types::PodType for $name {}
    };
}

/// Builds a [`kamping_mpi::dtype::TypeDesc::Struct`] for a (possibly
/// padded) struct: gaps between fields are skipped on the wire, mirroring
/// `MPI_Type_create_struct` (paper §III-D2/D4).
///
/// ```
/// use kamping::struct_desc;
///
/// #[repr(C)]
/// struct Gappy {
///     flag: u8,
///     // 3 padding bytes here
///     value: u32,
/// }
/// let desc = struct_desc!(Gappy { flag: u8, value: u32 });
/// assert_eq!(desc.packed_size(), 5);
/// assert_eq!(desc.extent(), 8);
/// ```
///
/// Each listed type must be the field's real type, or the wire size would
/// read past the field:
///
/// ```compile_fail
/// #[repr(C)]
/// struct Gappy { flag: u8, value: u32 }
/// let desc = kamping::struct_desc!(Gappy { flag: u32, value: u32 });
/// ```
#[macro_export]
macro_rules! struct_desc {
    ($ty:ty { $($field:ident : $fty:ty),+ $(,)? }) => {{
        $(let _ = |s: &$ty| {
            let _: &$fty = &s.$field;
        };)+
        ::kamping_mpi::dtype::TypeDesc::Struct {
            fields: vec![
                $((::std::mem::offset_of!($ty, $field), ::std::mem::size_of::<$fty>())),+
            ],
            extent: ::std::mem::size_of::<$ty>(),
        }
    }};
}

/// Reinterprets a pod slice as its wire bytes (zero-copy view).
pub fn pod_as_bytes<T: PodType>(data: &[T]) -> &[u8] {
    // SAFETY: PodType guarantees no padding, so every byte is initialized;
    // the length arithmetic cannot overflow because the slice exists.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Copies wire bytes into a fresh `Vec<T>`.
pub fn bytes_to_pods<T: PodType>(bytes: &[u8]) -> KResult<Vec<T>> {
    if T::SIZE == 0 {
        return if bytes.is_empty() {
            Ok(Vec::new())
        } else {
            Err(KampingError::InvalidArgument("bytes for zero-sized type"))
        };
    }
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(KampingError::InvalidArgument(
            "byte length not a multiple of element size",
        ));
    }
    let n = bytes.len() / T::SIZE;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: capacity reserved above; every bit pattern is a valid T, and
    // we copy exactly n * SIZE initialized bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    Ok(out)
}

/// Copies wire bytes into an existing pod slice (no allocation). `out` must
/// be at least as long as the decoded element count.
pub fn bytes_into_pods<T: PodType>(bytes: &[u8], out: &mut [T]) -> KResult<usize> {
    if T::SIZE == 0 {
        return Ok(0);
    }
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(KampingError::InvalidArgument(
            "byte length not a multiple of element size",
        ));
    }
    let n = bytes.len() / T::SIZE;
    if n > out.len() {
        return Err(KampingError::BufferTooSmall {
            needed: n,
            available: out.len(),
        });
    }
    // SAFETY: bounds checked above; T accepts any bit pattern.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    Ok(n)
}

/// Replaces `buf`'s contents with the decoded elements of `bytes`,
/// reusing its allocation and skipping zero-initialization (the elements
/// are written exactly once). The resize-to-fit receive paths use this.
pub fn fill_pod_vec_from_bytes<T: PodType>(buf: &mut Vec<T>, bytes: &[u8]) -> KResult<()> {
    if T::SIZE == 0 {
        buf.clear();
        return Ok(());
    }
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(KampingError::InvalidArgument(
            "byte length not a multiple of element size",
        ));
    }
    let n = bytes.len() / T::SIZE;
    buf.clear();
    buf.reserve(n);
    // SAFETY: capacity reserved above; all n * SIZE bytes are written
    // before set_len exposes them, and any bit pattern is a valid T.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr().cast::<u8>(), bytes.len());
        buf.set_len(n);
    }
    Ok(())
}

/// Views one pod value as its wire bytes.
pub fn pod_value_as_bytes<T: PodType>(value: &T) -> &[u8] {
    pod_as_bytes(std::slice::from_ref(value))
}

/// Decodes exactly one pod value.
pub fn pod_from_bytes<T: PodType>(bytes: &[u8]) -> KResult<T> {
    if bytes.len() != T::SIZE {
        return Err(KampingError::InvalidArgument("byte length != element size"));
    }
    let mut out = T::zeroed();
    // SAFETY: length checked; T accepts any bit pattern.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), (&mut out as *mut T).cast::<u8>(), T::SIZE);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_numeric_slices() {
        let v = vec![1u64, 2, u64::MAX];
        let bytes = pod_as_bytes(&v);
        assert_eq!(bytes.len(), 24);
        let back: Vec<u64> = bytes_to_pods(bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrip_floats_bitwise() {
        let v = vec![f64::NAN, -0.0, 1.5];
        let back: Vec<f64> = bytes_to_pods(pod_as_bytes(&v)).unwrap();
        assert_eq!(back[0].to_bits(), v[0].to_bits());
        assert_eq!(back[1].to_bits(), v[1].to_bits());
        assert_eq!(back[2], 1.5);
    }

    #[test]
    fn arrays_are_pod() {
        let v = vec![[1u32, 2], [3, 4]];
        let back: Vec<[u32; 2]> = bytes_to_pods(pod_as_bytes(&v)).unwrap();
        assert_eq!(back, v);
    }

    pod_struct! {
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Vec3 {
            x: f64,
            y: f64,
            z: f64,
        }
    }

    #[test]
    fn user_struct_via_pod_struct() {
        let v = vec![Vec3 {
            x: 1.0,
            y: 2.0,
            z: 3.0,
        }];
        let back: Vec<Vec3> = bytes_to_pods(pod_as_bytes(&v)).unwrap();
        assert_eq!(back, v);
        assert_eq!(Vec3::SIZE, 24);
    }

    #[test]
    fn struct_desc_skips_padding() {
        #[repr(C)]
        struct Gappy {
            a: u8,
            b: u64,
        }
        let desc = struct_desc!(Gappy { a: u8, b: u64 });
        assert_eq!(desc.extent(), 16);
        assert_eq!(desc.packed_size(), 9);
    }

    #[test]
    fn decode_into_existing_slice() {
        let v = [5u16, 6, 7];
        let mut out = [0u16; 4];
        let n = bytes_into_pods(pod_as_bytes(&v), &mut out).unwrap();
        assert_eq!(n, 3);
        assert_eq!(&out[..3], &v);
        let mut small = [0u16; 2];
        assert!(bytes_into_pods(pod_as_bytes(&v), &mut small).is_err());
    }

    #[test]
    fn single_value_roundtrip() {
        let x = -17i64;
        assert_eq!(pod_from_bytes::<i64>(pod_value_as_bytes(&x)).unwrap(), x);
        assert!(pod_from_bytes::<i64>(&[0u8; 4]).is_err());
    }

    #[test]
    fn misaligned_lengths_rejected() {
        assert!(bytes_to_pods::<u32>(&[0u8; 7]).is_err());
        assert!(bytes_to_pods::<u32>(&[]).unwrap().is_empty());
    }

    #[test]
    fn zeroed_is_zero() {
        assert_eq!(u64::zeroed(), 0);
        assert_eq!(<[f32; 2]>::zeroed(), [0.0, 0.0]);
    }
}
