//! Typed wire format for the simulated network.
//!
//! Every payload that crosses `Comm::send` implements [`Wire`]: the trait
//! both *marks* the type as a legal message and *derives* the byte size
//! the LogGP cost model charges for it. Before this trait existed, byte
//! sizes were caller-supplied and could silently drift from the real
//! payload (e.g. a broadcast charging `size_of::<Vec<T>>()` for a vector's
//! contents); now the size is computed from the data itself at the single
//! point where the message enters the fabric.
//!
//! Sizing convention: a value's wire size is the size of its *serialized*
//! form on an MPI-like fabric — fixed-size scalars count
//! `size_of::<T>()`, vectors count the sum of their elements (headers and
//! allocator padding are modelled by the LogGP per-message overhead `o`,
//! not per-payload bytes), tuples/structs count the packed sum of their
//! fields. This crate is a dependency leaf so that downstream crates
//! (`mnd-graph`, `mnd-kernels`, `mnd-core`, ...) can implement `Wire` for
//! their own message types without orphan-rule friction.

pub mod pack;

pub use pack::{PackedCounts, PackedIds, PackedPairs};

/// A type that can travel across the simulated fabric.
///
/// Implementors report the number of bytes their serialized form occupies;
/// `Comm::send` charges exactly this many bytes to the cost model and to
/// `RankStats`. The `Send + 'static` supertraits make every `Wire` type a
/// legal `Box<dyn Any + Send>` payload.
pub trait Wire: Send + 'static {
    /// Serialized size of this value in bytes under the cost model.
    fn wire_bytes(&self) -> u64;
}

macro_rules! scalar_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn wire_bytes(&self) -> u64 {
                std::mem::size_of::<$t>() as u64
            }
        }
    )*};
}
scalar_wire!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char);

impl Wire for () {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        0
    }
}

/// Vectors serialize as the concatenation of their elements; the length
/// prefix is covered by the per-message overhead of the cost model.
impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.iter().map(Wire::wire_bytes).sum()
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        self.iter().map(Wire::wire_bytes).sum()
    }
}

/// Options serialize as a one-byte presence tag plus the payload.
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        1 + self.as_ref().map_or(0, Wire::wire_bytes)
    }
}

macro_rules! tuple_wire {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[inline]
            #[allow(non_snake_case)]
            fn wire_bytes(&self) -> u64 {
                let ($($name,)+) = self;
                0 $(+ $name.wire_bytes())+
            }
        }
    };
}
tuple_wire!(A);
tuple_wire!(A, B);
tuple_wire!(A, B, C);
tuple_wire!(A, B, C, D);
tuple_wire!(A, B, C, D, E);
tuple_wire!(A, B, C, D, E, F);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_count_their_size() {
        assert_eq!(7u8.wire_bytes(), 1);
        assert_eq!(7u32.wire_bytes(), 4);
        assert_eq!(7u64.wire_bytes(), 8);
        assert_eq!(1.5f64.wire_bytes(), 8);
        assert_eq!(().wire_bytes(), 0);
    }

    #[test]
    fn vec_counts_elements_not_header() {
        assert_eq!(vec![7u32; 250].wire_bytes(), 1000);
        assert_eq!(Vec::<u64>::new().wire_bytes(), 0);
        // Nested: 3 inner vecs of 2 u16 each.
        assert_eq!(vec![vec![1u16, 2]; 3].wire_bytes(), 12);
    }

    #[test]
    fn tuples_pack_without_padding() {
        // (u32, u64) has size 16 in memory (alignment padding) but 12 on
        // the wire — the drift the Wire trait exists to eliminate.
        assert_eq!((1u32, 2u64).wire_bytes(), 12);
        assert_eq!((1u32, 2u32, 3u32).wire_bytes(), 12);
    }

    #[test]
    fn option_is_tag_plus_payload() {
        assert_eq!(None::<u64>.wire_bytes(), 1);
        assert_eq!(Some(5u64).wire_bytes(), 9);
    }
}
