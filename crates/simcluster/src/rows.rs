//! [`RowPool`]: the free list a controller's ranks take their gradient
//! rows from and give them back to.

use std::collections::HashMap;
use std::sync::Arc;

use hf_sync::Mutex;

/// A free list of `f32` buffers, keyed by capacity and shared by every
/// holder of a clone: what a controller hands each rank it spawns, so a
/// buffer one rank gives back another can take.
///
/// On the gradient path every row-sized buffer is taken from it and
/// given back to it — a rank's rows, a tree sum's spares, a sum
/// collective's result — so a steady-state update allocates none, and
/// frees none either: a free of a chunk that large lets glibc trim the
/// freeing thread's heap, and the next update faults it back in. The
/// list needs no cap: only it allocates these buffers, so it never holds
/// more than the most that were out at once.
///
/// A buffer it hands out again is neither zero-filled nor copied: what
/// it holds is unspecified, and a taker writes every value it reads.
#[derive(Clone)]
pub struct RowPool(Arc<Mutex<HashMap<usize, Vec<Vec<f32>>>>>);

impl Default for RowPool {
    /// An empty list of its own.
    fn default() -> Self {
        RowPool(Arc::new(Mutex::new(HashMap::new())))
    }
}

impl RowPool {
    /// A buffer of `len` values: one given back with room for exactly
    /// `len`, or a new one. What it holds is unspecified.
    pub fn take(&self, len: usize) -> Vec<f32> {
        let free = self.0.lock().get_mut(&len).and_then(Vec::pop);
        let mut buf = free.unwrap_or_else(|| vec![0.0; len]);
        // A given-back buffer may have been shortened (a gradient with
        // its row count popped off): this writes only the values it lacks.
        buf.resize(len, 0.0);
        buf
    }

    /// Buffers of capacity `len` in the list.
    #[cfg(test)]
    pub(crate) fn free(&self, len: usize) -> usize {
        self.0.lock().get(&len).map_or(0, Vec::len)
    }

    /// Gives `bufs` back, each under its capacity.
    pub fn give(&self, bufs: impl IntoIterator<Item = Vec<f32>>) {
        let mut free = self.0.lock();
        for buf in bufs {
            if buf.capacity() > 0 {
                free.entry(buf.capacity()).or_default().push(buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_given_back_buffer_is_taken_again_by_any_clone() {
        let (pool, peer) = (RowPool::default(), RowPool::default());
        let shared = pool.clone();
        let buf = pool.take(5);
        assert_eq!(buf, [0.0; 5]);
        let ptr = buf.as_ptr();
        shared.give([buf]);
        // Another list, or another length, does not see it.
        let (other, shorter) = (peer.take(5), pool.take(4));
        assert_ne!(other.as_ptr(), ptr);
        assert_ne!(shorter.as_ptr(), ptr);
        let again = pool.take(5);
        assert_eq!(again.as_ptr(), ptr, "the clone's buffer comes back");
        // Shortened, it is still filed under its capacity and comes back
        // at its full length.
        let mut short = again;
        short.pop();
        pool.give([short]);
        let full = shared.take(5);
        assert_eq!((full.as_ptr(), full.len()), (ptr, 5));
    }
}
