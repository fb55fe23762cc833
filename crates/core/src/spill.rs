//! Bounded-memory external merge sort over encrypted codeword records.
//!
//! [`crate::engine`] replaces every in-memory "collect, then sort" of
//! encrypted codewords with an [`ExtSorter`] (see [`crate::shard`]): a
//! classic external merge sort over *fixed-width* byte records. Records
//! accumulate in a buffer of at most `mem_budget` bytes; when the buffer
//! fills, it is sorted and written out as one run file, and at the end
//! the in-memory tail plus every spilled run are k-way merged back in
//! globally sorted order. Memory therefore stays O(`mem_budget`)
//! regardless of how many records pass through.
//!
//! Secrecy invariant: spill files hold **only post-`h`-post-`enc` bytes**
//! (encrypted codewords, optionally prefixed by a bucket id and suffixed
//! by a local index). Raw values and bare hashes never reach
//! [`ExtSorter::push_record`] — the analyzer's WIRE01 taint pass treats
//! `push_record` as a sink exactly like a transport send, so the build
//! *proves* nothing rawer than an encryption output is ever spilled.
//!
//! Run files are created inside `spill_dir` and unlinked immediately
//! after creation (the open handle keeps them readable on Linux), so
//! they cannot outlive the process even on a crash.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::ProtocolError;

/// Run-file sequence number, shared by every [`ExtSorter`] in the process:
/// concurrent sorters spilling into one directory (two sharded daemon
/// sessions, parallel tests) must never pick the same name in the window
/// between `create_new` and the unlink. A plain unique-id counter, so
/// `Relaxed` suffices.
static NEXT_RUN: AtomicU64 = AtomicU64::new(0);

/// Counters describing what one [`ExtSorter`] actually did — the
/// bounded-memory smoke test asserts `runs_spilled > 0` to prove the
/// external path really engaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sorted runs written to disk (0 = everything fit in the budget).
    pub runs_spilled: u64,
    /// Total bytes written to spill files.
    pub bytes_spilled: u64,
    /// Records pushed through the sorter.
    pub records: u64,
}

fn spill_err(detail: impl std::fmt::Display) -> ProtocolError {
    ProtocolError::Spill {
        detail: detail.to_string(),
    }
}

/// An external merge sorter over fixed-width byte records.
///
/// `push_record` each record, then [`ExtSorter::finish`] to get a
/// [`SortedStream`] yielding every record in ascending lexicographic
/// order (equal records are all yielded; the sort is not deduplicating).
/// Fixed-width big-endian codewords make lexicographic order coincide
/// with numeric order, the same trick the wire format relies on.
pub struct ExtSorter {
    record_len: usize,
    budget_bytes: usize,
    buf: Vec<u8>,
    runs: Vec<File>,
    dir: PathBuf,
    stats: SpillStats,
}

impl ExtSorter {
    /// A sorter for `record_len`-byte records holding at most
    /// `budget_bytes` of record data in memory; runs spill into `dir`
    /// (the caller picks it — typically `--spill-dir` or the OS temp
    /// dir). The budget is clamped so at least one record always fits.
    pub fn new(record_len: usize, budget_bytes: usize, dir: &Path) -> Result<Self, ProtocolError> {
        if record_len == 0 {
            return Err(spill_err("record length must be non-zero"));
        }
        Ok(ExtSorter {
            record_len,
            budget_bytes: budget_bytes.max(record_len),
            buf: Vec::new(),
            runs: Vec::new(),
            dir: dir.to_path_buf(),
            stats: SpillStats::default(),
        })
    }

    /// The fixed record width.
    pub fn record_len(&self) -> usize {
        self.record_len
    }

    /// What the sorter has done so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Appends one record. **Taint sink**: callers must only pass
    /// post-`h`-post-`enc` bytes (plus neutral framing like bucket ids
    /// and indices) — these bytes may hit disk.
    pub fn push_record(&mut self, record: &[u8]) -> Result<(), ProtocolError> {
        if record.len() != self.record_len {
            return Err(spill_err(format!(
                "record of {} bytes pushed into a {}-byte sorter",
                record.len(),
                self.record_len
            )));
        }
        if self.buf.len() + self.record_len > self.budget_bytes && !self.buf.is_empty() {
            self.spill_run()?;
        }
        self.buf.extend_from_slice(record);
        self.stats.records += 1;
        Ok(())
    }

    /// Sorts the current buffer and writes it out as one run file.
    fn spill_run(&mut self) -> Result<(), ProtocolError> {
        let sorted = sort_buffer(&self.buf, self.record_len);
        let path = self.dir.join(format!(
            "minshare-spill-{}-{}.run",
            std::process::id(),
            NEXT_RUN.fetch_add(1, Ordering::Relaxed)
        ));
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| spill_err(format!("create {}: {e}", path.display())))?;
        // Unlink immediately: the open handle keeps the run readable,
        // and the file cannot leak past the process's lifetime.
        std::fs::remove_file(&path)
            .map_err(|e| spill_err(format!("unlink {}: {e}", path.display())))?;
        let mut writer = BufWriter::new(file);
        for rec in &sorted {
            writer.write_all(rec).map_err(spill_err)?;
        }
        let mut file = writer.into_inner().map_err(spill_err)?;
        file.seek(SeekFrom::Start(0)).map_err(spill_err)?;
        self.stats.runs_spilled += 1;
        self.stats.bytes_spilled += self.buf.len() as u64;
        let (records, bytes) = (
            self.buf.len() as u64 / self.record_len as u64,
            self.buf.len() as u64,
        );
        minshare_trace::emit("spill", "run_spilled", true, move || {
            vec![
                minshare_trace::count("records", records),
                minshare_trace::size("bytes", bytes),
            ]
        });
        self.runs.push(file);
        self.buf.clear();
        Ok(())
    }

    /// Sorts the in-memory tail and opens the k-way merge across it and
    /// every spilled run. Returns the merged stream and final stats.
    pub fn finish(mut self) -> Result<(SortedStream, SpillStats), ProtocolError> {
        let tail = sort_buffer(&self.buf, self.record_len)
            .into_iter()
            .map(|r| r.to_vec())
            .collect();
        let mut sources: Vec<RunSource> = self
            .runs
            .drain(..)
            .map(|f| RunSource::File(BufReader::new(f)))
            .collect();
        sources.push(RunSource::Mem {
            records: tail,
            pos: 0,
        });
        let mut stream = SortedStream {
            record_len: self.record_len,
            heap: BinaryHeap::with_capacity(sources.len()),
            sources,
        };
        for i in 0..stream.sources.len() {
            stream.refill(i)?;
        }
        Ok((stream, self.stats))
    }
}

/// Returns the records of `buf` as sorted slices (the buffer itself is
/// not rearranged; the slice vector costs 16 bytes per record, a small
/// constant factor on top of the byte budget).
fn sort_buffer(buf: &[u8], record_len: usize) -> Vec<&[u8]> {
    let mut records: Vec<&[u8]> = buf.chunks_exact(record_len).collect();
    records.sort_unstable();
    records
}

enum RunSource {
    File(BufReader<File>),
    Mem { records: Vec<Vec<u8>>, pos: usize },
}

/// The globally sorted record stream out of an [`ExtSorter`]: a k-way
/// merge holding one record per source in memory.
pub struct SortedStream {
    record_len: usize,
    heap: BinaryHeap<Reverse<(Vec<u8>, usize)>>,
    sources: Vec<RunSource>,
}

impl SortedStream {
    /// Pulls the next record from source `i` into the heap, if any.
    fn refill(&mut self, i: usize) -> Result<(), ProtocolError> {
        let Some(source) = self.sources.get_mut(i) else {
            return Err(spill_err("merge source index out of range"));
        };
        match source {
            RunSource::Mem { records, pos } => {
                if let Some(rec) = records.get_mut(*pos) {
                    *pos += 1;
                    self.heap.push(Reverse((std::mem::take(rec), i)));
                }
            }
            RunSource::File(reader) => {
                let mut rec = vec![0u8; self.record_len];
                match reader.read_exact(&mut rec) {
                    Ok(()) => self.heap.push(Reverse((rec, i))),
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {}
                    Err(e) => return Err(spill_err(format!("read spill run: {e}"))),
                }
            }
        }
        Ok(())
    }

    /// The next record in ascending order, or `None` when drained.
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        let Some(Reverse((rec, source))) = self.heap.pop() else {
            return Ok(None);
        };
        self.refill(source)?;
        Ok(Some(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn drain(mut stream: SortedStream) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(rec) = stream.next_record().unwrap() {
            out.push(rec);
        }
        out
    }

    fn sort_via(records: &[Vec<u8>], budget: usize) -> (Vec<Vec<u8>>, SpillStats) {
        let dir = std::env::temp_dir();
        let mut sorter = ExtSorter::new(records[0].len(), budget, &dir).unwrap();
        for r in records {
            sorter.push_record(r).unwrap();
        }
        let (stream, stats) = sorter.finish().unwrap();
        (drain(stream), stats)
    }

    fn random_records(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.random()).collect())
            .collect()
    }

    #[test]
    fn in_memory_path_sorts_without_spilling() {
        let records = random_records(100, 12, 1);
        let (got, stats) = sort_via(&records, 1 << 20);
        let mut expect = records.clone();
        expect.sort();
        assert_eq!(got, expect);
        assert_eq!(stats.runs_spilled, 0);
        assert_eq!(stats.records, 100);
    }

    #[test]
    fn spilled_path_merges_to_the_same_order() {
        let records = random_records(500, 12, 2);
        let (in_mem, _) = sort_via(&records, 1 << 20);
        // 12-byte records, 100-byte budget → 8 records per run, ~62 runs.
        let (spilled, stats) = sort_via(&records, 100);
        assert_eq!(spilled, in_mem);
        assert!(stats.runs_spilled > 10, "runs={}", stats.runs_spilled);
        assert_eq!(stats.records, 500);
        assert!(stats.bytes_spilled > 0 && stats.bytes_spilled <= 500 * 12);
    }

    #[test]
    fn duplicates_survive_the_merge() {
        let mut records = random_records(40, 8, 3);
        let dup = records[0].clone();
        for _ in 0..20 {
            records.push(dup.clone());
        }
        let (got, _) = sort_via(&records, 64);
        assert_eq!(got.len(), 60);
        assert_eq!(got.iter().filter(|r| **r == dup).count(), 21);
    }

    #[test]
    fn empty_sorter_yields_nothing() {
        let dir = std::env::temp_dir();
        let sorter = ExtSorter::new(8, 1024, &dir).unwrap();
        let (stream, stats) = sorter.finish().unwrap();
        assert!(drain(stream).is_empty());
        assert_eq!(stats, SpillStats::default());
    }

    #[test]
    fn wrong_width_and_zero_width_are_typed_errors() {
        let dir = std::env::temp_dir();
        assert!(matches!(
            ExtSorter::new(0, 1024, &dir),
            Err(ProtocolError::Spill { .. })
        ));
        let mut sorter = ExtSorter::new(8, 1024, &dir).unwrap();
        assert!(matches!(
            sorter.push_record(&[0u8; 7]),
            Err(ProtocolError::Spill { .. })
        ));
    }

    /// A directory of this test's own, so "nothing lingers" is a claim
    /// about this test's sorters and not about its neighbours'.
    fn private_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("minshare-spill-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(dir: &Path) -> usize {
        std::fs::read_dir(dir).unwrap().count()
    }

    #[test]
    fn spill_files_do_not_linger() {
        // Runs are unlinked at creation; nothing should remain visible in
        // the spill dir even mid-sort.
        let dir = private_dir("linger");
        let mut sorter = ExtSorter::new(8, 16, &dir).unwrap();
        for r in random_records(64, 8, 4) {
            sorter.push_record(&r).unwrap();
        }
        assert!(sorter.stats().runs_spilled > 0);
        assert_eq!(entries(&dir), 0);
        drop(sorter);
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn concurrent_sorters_share_a_spill_dir() {
        // Regression: run names were `pid + per-sorter counter`, so two
        // sorters in one process raced on `create_new` ("File exists").
        // Every thread starts spilling at the same moment, into one dir.
        const THREADS: usize = 8;
        let dir = private_dir("shared");
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (dir, barrier) = (&dir, &barrier);
                    scope.spawn(move || {
                        let records = random_records(200, 8, 100 + t as u64);
                        let mut sorter = ExtSorter::new(8, 16, dir).unwrap();
                        barrier.wait();
                        for r in &records {
                            sorter.push_record(r).unwrap();
                        }
                        let (stream, stats) = sorter.finish().unwrap();
                        assert_eq!(stats.runs_spilled, 99);
                        let mut expect = records;
                        expect.sort();
                        assert_eq!(drain(stream), expect);
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
        });
        assert_eq!(entries(&dir), 0);
        std::fs::remove_dir(&dir).unwrap();
    }
}
