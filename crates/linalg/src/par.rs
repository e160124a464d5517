//! Scoped fan-out for the fit kernels.
//!
//! A fit kernel splits its work into contiguous ranges, runs one range per
//! thread under [`std::thread::scope`], and gets the per-range results back
//! **in range order** ([`map_ranges`]), or fills disjoint blocks of one
//! output in place. Kernels reassemble results in range order, so their
//! output never depends on how many threads ran: the same arithmetic
//! happens in the same order on every thread count, including one.
//!
//! How many threads a kernel uses is a function of its input size alone
//! ([`threads_for`]): below the kernel's per-thread minimum the work stays
//! on the calling thread and pays no spawn cost.

use std::ops::Range;
use std::sync::OnceLock;

/// Threads available to the fit kernels: `available_parallelism`, read once.
fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads to spread `items` units of work over when each thread should get
/// at least `min_per_thread` of them: `1` below twice that minimum, never
/// more than `available_parallelism`.
pub fn threads_for(items: usize, min_per_thread: usize) -> usize {
    (items / min_per_thread.max(1)).clamp(1, available_threads())
}

/// Splits `0..len` into `parts` contiguous ranges whose lengths differ by at
/// most one, in order. Never returns more ranges than `len` (but at least
/// one, so an empty input still yields the empty range).
pub fn split_even(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let (base, extra) = (len / parts, len % parts);
    let mut start = 0;
    (0..parts)
        .map(|p| {
            let end = start + base + usize::from(p < extra);
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// Runs `work` once per range, each range on its own scoped thread (the
/// first on the calling thread), and returns the results in range order. A
/// single range runs inline without spawning.
///
/// # Panics
/// Re-raises a panic from any `work` call.
pub fn map_ranges<T, F>(ranges: Vec<Range<usize>>, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = ranges.iter().map(|_| None).collect();
    let parts = slots.len();
    for_each_chunk_mut(&mut slots, parts, |index, slot| {
        slot[0] = Some(work(ranges[index].clone()));
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every range ran"))
        .collect()
}

/// Splits `data` into the chunks [`split_even`] gives for `parts` and runs
/// `work(start, chunk)` on each, where `start` is the chunk's offset in
/// `data`: each chunk on its own scoped thread, the first on the calling
/// thread. A single chunk runs inline without spawning; empty `data` runs
/// nothing.
///
/// # Panics
/// Re-raises a panic from any `work` call.
pub(crate) fn for_each_chunk_mut<T, F>(data: &mut [T], parts: usize, work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let mut chunks = Vec::with_capacity(parts);
    let mut rest = data;
    for range in split_even(rest.len(), parts) {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
        chunks.push((range.start, chunk));
        rest = tail;
    }
    let mut chunks = chunks.into_iter();
    let Some((first_start, first)) = chunks.next() else {
        return;
    };
    let work = &work;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = chunks
            .map(|(start, chunk)| scope.spawn(move || work(start, chunk)))
            .collect();
        work(first_start, first);
        for handle in spawned {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_the_range_in_order() {
        for len in 0..40 {
            for parts in 1..9 {
                let ranges = split_even(len, parts);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= parts);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "len {len} parts {parts}: {lens:?}");
            }
        }
    }

    #[test]
    fn map_ranges_returns_results_in_range_order() {
        let sums = map_ranges(split_even(1000, 7), |r| r.sum::<usize>());
        assert_eq!(sums.len(), 7);
        assert_eq!(sums.iter().sum::<usize>(), (0..1000).sum::<usize>());
        let firsts = map_ranges(split_even(1000, 7), |r| r.start);
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        assert!(map_ranges(Vec::new(), |r| r.len()).is_empty());
    }

    #[test]
    fn for_each_chunk_mut_hands_out_each_offset_once() {
        for parts in 1..9 {
            let mut data = vec![usize::MAX; 100];
            for_each_chunk_mut(&mut data, parts, |start, chunk| {
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + i;
                }
            });
            assert_eq!(data, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn threads_for_stays_inline_below_the_minimum() {
        assert_eq!(threads_for(0, 100), 1);
        assert_eq!(threads_for(199, 100), 1);
        assert!(threads_for(1_000_000, 100) <= available_threads());
        assert!(threads_for(1_000_000, 100) >= 1);
    }
}
