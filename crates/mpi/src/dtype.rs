//! Runtime ("dynamic") derived datatypes.
//!
//! MPI describes non-contiguous memory with derived datatypes built from
//! type constructors (`MPI_Type_contiguous`, `_vector`, `_indexed`,
//! `_create_struct`). The substrate's equivalent is [`TypeDesc`]: a runtime
//! description of which byte ranges of a buffer belong to an element, plus
//! a pack/unpack engine. The typed binding layer maps *static* Rust types
//! onto trivially-copyable byte spans at compile time (paper §III-D1) and
//! uses `TypeDesc` for the dynamic case (§III-D2).
//!
//! The engine is also what makes the "MPL-like" ablation possible: MPL
//! lowers v-collectives to `MPI_Alltoallw` with per-peer derived datatypes,
//! paying per-block copy loops — [`crate::RawComm::alltoallw`] reproduces
//! that lowering faithfully.

use crate::error::{MpiError, MpiResult};
use crate::profile::Op;
use crate::tag::coll_tag;
use crate::RawComm;

/// A runtime description of one datatype element over a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDesc {
    /// `len` contiguous bytes (`MPI_Type_contiguous` over bytes).
    Contiguous {
        /// Element length in bytes.
        len: usize,
    },
    /// `count` blocks of `block_len` bytes, starting `stride` bytes apart
    /// (`MPI_Type_vector`).
    Vector {
        /// Number of blocks.
        count: usize,
        /// Bytes per block.
        block_len: usize,
        /// Byte distance between block starts; must be >= `block_len`.
        stride: usize,
    },
    /// Blocks at explicit `(displacement, length)` byte positions
    /// (`MPI_Type_indexed`). Displacements must be non-decreasing block
    /// starts within the element extent.
    Indexed {
        /// `(byte displacement, byte length)` per block.
        blocks: Vec<(usize, usize)>,
        /// Total extent of one element in bytes.
        extent: usize,
    },
    /// Fields of a struct at explicit displacements
    /// (`MPI_Type_create_struct`); alignment gaps are *not* transmitted,
    /// exactly the behaviour §III-D4 discusses.
    Struct {
        /// `(byte displacement, byte length)` per field.
        fields: Vec<(usize, usize)>,
        /// `size_of` the struct including padding.
        extent: usize,
    },
}

impl TypeDesc {
    /// Bytes of memory one element spans (including gaps).
    pub fn extent(&self) -> usize {
        match self {
            TypeDesc::Contiguous { len } => *len,
            TypeDesc::Vector {
                count,
                block_len,
                stride,
            } => {
                if *count == 0 {
                    0
                } else {
                    stride * (count - 1) + block_len
                }
            }
            TypeDesc::Indexed { extent, .. } | TypeDesc::Struct { extent, .. } => *extent,
        }
    }

    /// Bytes one element occupies on the wire (gaps removed).
    pub fn packed_size(&self) -> usize {
        match self {
            TypeDesc::Contiguous { len } => *len,
            TypeDesc::Vector {
                count, block_len, ..
            } => count * block_len,
            TypeDesc::Indexed { blocks, .. } => blocks.iter().map(|&(_, l)| l).sum(),
            TypeDesc::Struct { fields, .. } => fields.iter().map(|&(_, l)| l).sum(),
        }
    }

    /// Validates internal consistency (blocks within extent, stride sane).
    pub(crate) fn validate(&self) -> MpiResult<()> {
        let ok = match self {
            TypeDesc::Contiguous { .. } => true,
            TypeDesc::Vector {
                count,
                block_len,
                stride,
            } => *count == 0 || stride >= block_len,
            TypeDesc::Indexed { blocks, extent } => blocks.iter().all(|&(d, l)| d + l <= *extent),
            TypeDesc::Struct { fields, extent } => fields.iter().all(|&(d, l)| d + l <= *extent),
        };
        if ok {
            Ok(())
        } else {
            Err(MpiError::InvalidCounts {
                what: "malformed TypeDesc",
            })
        }
    }

    /// Iterates the `(displacement, length)` blocks of one element.
    fn for_each_block(&self, mut f: impl FnMut(usize, usize)) {
        match self {
            TypeDesc::Contiguous { len } => {
                if *len > 0 {
                    f(0, *len)
                }
            }
            TypeDesc::Vector {
                count,
                block_len,
                stride,
            } => {
                for i in 0..*count {
                    f(i * stride, *block_len);
                }
            }
            TypeDesc::Indexed { blocks, .. } => {
                for &(d, l) in blocks {
                    f(d, l);
                }
            }
            TypeDesc::Struct { fields, .. } => {
                for &(d, l) in fields {
                    f(d, l);
                }
            }
        }
    }

    /// Packs `count` elements starting at `src` into a contiguous wire
    /// buffer.
    pub fn pack_n(&self, src: &[u8], count: usize) -> MpiResult<Vec<u8>> {
        self.validate()?;
        let extent = self.extent();
        if count > 0 && (count - 1) * extent + self.min_span() > src.len() {
            return Err(MpiError::InvalidCounts {
                what: "pack: source buffer too small",
            });
        }
        let mut out = Vec::with_capacity(self.packed_size() * count);
        for i in 0..count {
            let base = i * extent;
            self.for_each_block(|d, l| out.extend_from_slice(&src[base + d..base + d + l]));
        }
        Ok(out)
    }

    /// Unpacks `count` elements from `wire` into `dst` (which must span
    /// `count` extents). Bytes in gaps are left untouched.
    pub fn unpack_n(&self, wire: &[u8], dst: &mut [u8], count: usize) -> MpiResult<()> {
        self.validate()?;
        if wire.len() != self.packed_size() * count {
            return Err(MpiError::InvalidCounts {
                what: "unpack: wire length mismatch",
            });
        }
        let extent = self.extent();
        if count > 0 && (count - 1) * extent + self.min_span() > dst.len() {
            return Err(MpiError::InvalidCounts {
                what: "unpack: destination too small",
            });
        }
        let mut offset = 0usize;
        for i in 0..count {
            let base = i * extent;
            self.for_each_block(|d, l| {
                dst[base + d..base + d + l].copy_from_slice(&wire[offset..offset + l]);
                offset += l;
            });
        }
        Ok(())
    }

    /// Minimal bytes one element must be able to address (max displ + len).
    fn min_span(&self) -> usize {
        let mut span = 0;
        self.for_each_block(|d, l| span = span.max(d + l));
        span
    }
}

impl RawComm {
    /// `MPI_Alltoallw`-style exchange with one derived datatype per peer:
    /// element `i` of `send_types`/`recv_types` describes the single
    /// type-element sent to / received from rank `i` within `send`/`recv`.
    ///
    /// This is the lowering MPL uses for *all* v-collectives (per §II of
    /// the paper) and exists here chiefly as the "MPL-like" ablation of the
    /// Fig. 8/Fig. 10 benchmarks: every peer costs a type-driven pack *and*
    /// unpack copy loop in addition to the envelope.
    pub fn alltoallw(
        &self,
        send: &[u8],
        send_types: &[TypeDesc],
        recv: &mut [u8],
        recv_types: &[TypeDesc],
    ) -> MpiResult<()> {
        let _op = self.record(Op::Alltoallw);
        let p = self.size();
        if send_types.len() != p || recv_types.len() != p {
            return Err(MpiError::InvalidCounts {
                what: "alltoallw types length != comm size",
            });
        }
        let tag = coll_tag(self.next_coll_seq());
        for (dest, ty) in send_types.iter().enumerate() {
            if dest == self.rank() {
                continue;
            }
            let wire = ty.pack_n(send, 1)?;
            self.send_internal(dest, tag, wire)?;
        }
        // Self-exchange.
        {
            let wire = send_types[self.rank()].pack_n(send, 1)?;
            recv_types[self.rank()].unpack_n(&wire, recv, 1)?;
        }
        for (src, ty) in recv_types.iter().enumerate() {
            if src == self.rank() {
                continue;
            }
            let wire = self.recv_internal(src, tag)?;
            ty.unpack_n(&wire, recv, 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn contiguous_roundtrip() {
        let t = TypeDesc::Contiguous { len: 4 };
        let src = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let wire = t.pack_n(&src, 2).unwrap();
        assert_eq!(wire, src);
        let mut dst = [0u8; 8];
        t.unpack_n(&wire, &mut dst, 2).unwrap();
        assert_eq!(dst, src);
    }

    #[test]
    fn vector_skips_stride_gaps() {
        // 3 blocks of 2 bytes, stride 4: picks bytes 0-1, 4-5, 8-9.
        let t = TypeDesc::Vector {
            count: 3,
            block_len: 2,
            stride: 4,
        };
        assert_eq!(t.extent(), 10);
        assert_eq!(t.packed_size(), 6);
        let src: Vec<u8> = (0..10).collect();
        let wire = t.pack_n(&src, 1).unwrap();
        assert_eq!(wire, vec![0, 1, 4, 5, 8, 9]);
        let mut dst = vec![0xFFu8; 10];
        t.unpack_n(&wire, &mut dst, 1).unwrap();
        assert_eq!(dst, vec![0, 1, 0xFF, 0xFF, 4, 5, 0xFF, 0xFF, 8, 9]);
    }

    #[test]
    fn struct_gaps_not_transmitted() {
        // A struct { u8 a; <3 pad>; u32 b; } — 8-byte extent, 5 wire bytes.
        let t = TypeDesc::Struct {
            fields: vec![(0, 1), (4, 4)],
            extent: 8,
        };
        assert_eq!(t.packed_size(), 5);
        let src = [7u8, 0xEE, 0xEE, 0xEE, 1, 2, 3, 4];
        let wire = t.pack_n(&src, 1).unwrap();
        assert_eq!(wire, vec![7, 1, 2, 3, 4]);
        let mut dst = [0u8; 8];
        t.unpack_n(&wire, &mut dst, 1).unwrap();
        assert_eq!(dst, [7, 0, 0, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn indexed_blocks() {
        let t = TypeDesc::Indexed {
            blocks: vec![(2, 2), (6, 1)],
            extent: 8,
        };
        let src: Vec<u8> = (10..18).collect();
        let wire = t.pack_n(&src, 1).unwrap();
        assert_eq!(wire, vec![12, 13, 16]);
    }

    #[test]
    fn multi_element_struct_array() {
        let t = TypeDesc::Struct {
            fields: vec![(0, 2), (4, 2)],
            extent: 8,
        };
        let src: Vec<u8> = (0..16).collect();
        let wire = t.pack_n(&src, 2).unwrap();
        assert_eq!(wire, vec![0, 1, 4, 5, 8, 9, 12, 13]);
        let mut dst = vec![0u8; 16];
        t.unpack_n(&wire, &mut dst, 2).unwrap();
        assert_eq!(&dst[0..2], &[0, 1]);
        assert_eq!(&dst[8..10], &[8, 9]);
    }

    #[test]
    fn malformed_types_rejected() {
        let t = TypeDesc::Vector {
            count: 2,
            block_len: 4,
            stride: 2,
        };
        assert!(t.validate().is_err());
        let t = TypeDesc::Indexed {
            blocks: vec![(6, 4)],
            extent: 8,
        };
        assert!(t.pack_n(&[0u8; 8], 1).is_err());
    }

    #[test]
    fn pack_bounds_checked() {
        let t = TypeDesc::Contiguous { len: 4 };
        assert!(t.pack_n(&[0u8; 3], 1).is_err());
        assert!(t.unpack_n(&[0u8; 4], &mut [0u8; 3], 1).is_err());
        assert!(t.unpack_n(&[0u8; 3], &mut [0u8; 4], 1).is_err());
    }

    #[test]
    fn alltoallw_emulates_gatherv_the_mpl_way() {
        // Every rank "gathers" by receiving each peer's block at a
        // rank-indexed displacement — the MPL-style lowering.
        Universe::run(3, |comm| {
            let me = comm.rank();
            let send = vec![me as u8 + 1; 2];
            // send the same 2-byte block to everyone
            let send_types = vec![TypeDesc::Contiguous { len: 2 }; 3];
            let mut recv = vec![0u8; 6];
            let recv_types: Vec<TypeDesc> = (0..3)
                .map(|src| TypeDesc::Indexed {
                    blocks: vec![(2 * src, 2)],
                    extent: 6,
                })
                .collect();
            comm.alltoallw(&send, &send_types, &mut recv, &recv_types)
                .unwrap();
            assert_eq!(recv, vec![1, 1, 2, 2, 3, 3]);
        });
    }
}
