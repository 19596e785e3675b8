//! # kamping-sort — distributed sorting and suffix arrays
//!
//! The paper's §IV-A applications:
//!
//! * [`sample_sort`] — the textbook distributed sample sort of Fig. 7
//!   (one local sort, one `alltoallv`, a merge of the `p` runs received), in
//!   four variants: through the kamping binding layer
//!   ([`sample_sort_kamping`]), against the raw substrate with all the
//!   hand-rolled boilerplate ([`sample_sort_plain`] — the "plain MPI"
//!   column of Table I / Fig. 8), an **MPL-like ablation**
//!   ([`sample_sort_mpl_like`]) that lowers the data exchange to
//!   `alltoallw` with per-peer derived datatypes — the lowering §II blames
//!   for MPL's slowdown on v-collectives, reproduced measurably — and one
//!   that overlaps the exchange with the local sort (`sample_sort_overlapped`).
//! * [`suffix`] — suffix-array construction by prefix doubling
//!   (Manber–Myers), the §IV-A text-processing application (163 vs. 426
//!   lines of code in the paper), with the hand-rolled plain-substrate
//!   edition in [`suffix_plain`] for the LoC comparison;
//! * [`dc3`] — the DCX/DC3 (skew) suffix-array construction, the paper's
//!   other §IV-A algorithm (1264 LoC KaMPIng vs. 1396 LoC pDCX there),
//!   including distributed recursion;
//! * [`sorter`] — the STL-like distributed sorter plugin of §V
//!   (`comm.sort_distributed(&mut v)`).

pub mod dc3;
pub mod sample_sort;
pub mod sorter;
pub mod suffix;
pub mod suffix_plain;

pub use dc3::suffix_array_dc3;
pub use sample_sort::{sample_sort_kamping, sample_sort_mpl_like, sample_sort_plain};
pub use sorter::DistributedSorter;
pub use suffix::suffix_array_prefix_doubling;
pub use suffix_plain::suffix_array_prefix_doubling_plain;
