//! Crash-safe persistence of the streaming engine.
//!
//! A [`crate::StreamingValmod`] holds O(n·R) of expensively-computed
//! exact state; this module makes it durable with the same exactness
//! contract as everything else in the suite: a restored engine is
//! **bit-identical** to the engine that was checkpointed — byte-equal
//! `valmap()`, `poll_deltas()` and `snapshot()`, across SIMD dispatch
//! levels and worker counts.
//!
//! Three layers:
//!
//! * [`StreamingValmod::checkpoint_to`] / [`StreamingValmod::restore_from`]
//!   — a versioned, length-prefixed, FNV-checksummed binary image of the
//!   full engine state, written to / read from any `Write`/`Read`.
//! * [`JournalWriter`] — the per-sample write-ahead journal between
//!   checkpoints: one fixed-width checksummed record per appended point,
//!   torn-tail tolerant on replay.
//! * [`CheckpointStore`] — a directory of generation-numbered
//!   checkpoints and journals with atomic publication (temp file +
//!   fsync + rename + directory fsync) and recovery = newest *valid*
//!   checkpoint (corrupt/truncated falls back a generation) + contiguous
//!   journal replay.
//!
//! # What is persisted vs rebuilt
//!
//! The image stores exactly the state that cannot be re-derived
//! bit-exactly: the raw series, the bootstrap centering offset, the
//! per-length profiles and chained `QT` recurrence rows, the emitted
//! VALMAP (the `poll_deltas` diff base), and the version counter. The
//! prefix-sum statistics and per-window means/stds are *rebuilt* by
//! replaying the exact push/memoize sequence the live engine executed —
//! bit-identical because those accumulators are write-once (an entry
//! never changes after it is appended), so re-pushing the same values in
//! the same order reproduces every partial sum and every rounding step.
//!
//! Journal replay feeds recovered samples through
//! [`StreamingValmod::try_append`] — the *same* per-point code path the
//! live session used — never through the batched
//! [`StreamingValmod::extend`], whose FFT-amortized first columns order
//! the arithmetic differently. Same path, same bits.
//!
//! Every I/O operation in [`CheckpointStore`] routes through
//! [`valmod_series::faults`], so the crash-recovery tests can
//! deterministically fail any single `create`/`write`/`sync`/`rename`
//! and prove recovery is exact from every reachable crash point.

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use valmod_core::ValmodConfig;
use valmod_obs as obs;
use valmod_series::{faults, Result, SeriesError};

use crate::engine::{reserve_extra, EmittedValmap, LengthState, StreamStats};
use crate::ring::RingBuffer;
use crate::StreamingValmod;
use valmod_mp::MatrixProfile;

/// File magic: format name + image version. Bumping the trailing byte is
/// the versioning story — an old binary refuses a new image with a
/// typed error instead of misreading it.
const MAGIC: &[u8; 8] = b"VLMDCKP1";

/// Checkpoint bytes are written in chunks of this size so a torn write
/// (or an injected crash) can land mid-image, not only at the end.
const WRITE_CHUNK: usize = 64 * 1024;

/// Checkpoint generations kept on disk. Two, so the newest can be
/// corrupt (torn by a crash, bit-flipped by the disk) and recovery still
/// has the previous generation plus its longer journal to replay.
const KEEP_GENERATIONS: u64 = 2;

/// FNV-1a-64 over a byte slice — the same hasher style the test kit uses
/// for output checksums. Used for the small fixed-width journal records.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Word-at-a-time FNV-1a-64: folds 8-byte little-endian words (trailing
/// bytes folded individually). The byte-wise hash is one sequential
/// multiply *per byte* — over a multi-megabyte checkpoint image that
/// latency chain alone would dominate checkpoint cost, so the envelope
/// uses this variant (8× fewer multiplies, still sensitive to any
/// single-bit flip).
#[must_use]
pub fn fnv64_words(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        h ^= u64::from_le_bytes(w.try_into().expect("8 bytes"));
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn corrupt(detail: impl Into<String>) -> SeriesError {
    SeriesError::CheckpointCorrupt { detail: detail.into() }
}

/// Little-endian u64 writer over a growing buffer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt(&mut self, v: Option<usize>) {
        self.u64(v.map_or(u64::MAX, |x| x as u64));
    }
}

/// Bounds-checked little-endian u64 reader; every overrun is a typed
/// corruption error, never a panic.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn u64(&mut self) -> Result<u64> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| corrupt("body truncated"))?;
        let v = u64::from_le_bytes(self.buf[self.pos..end].try_into().expect("8 bytes"));
        self.pos = end;
        Ok(v)
    }

    fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| corrupt("count overflows usize"))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt(&mut self) -> Result<Option<usize>> {
        match self.u64()? {
            u64::MAX => Ok(None),
            v => usize::try_from(v).map(Some).map_err(|_| corrupt("index overflows usize")),
        }
    }

    /// Validates that `len` 8-byte words are actually present *before*
    /// allocating for them, so a corrupted count fails cleanly instead
    /// of attempting an absurd allocation.
    fn expect_words(&self, len: usize) -> Result<()> {
        let need = len.checked_mul(8).ok_or_else(|| corrupt("count overflows"))?;
        if self.buf.len() - self.pos < need {
            return Err(corrupt("body truncated"));
        }
        Ok(())
    }

    fn f64_vec(&mut self, len: usize) -> Result<Vec<f64>> {
        self.expect_words(len)?;
        (0..len).map(|_| self.f64()).collect()
    }

    fn opt_vec(&mut self, len: usize) -> Result<Vec<Option<usize>>> {
        self.expect_words(len)?;
        (0..len).map(|_| self.opt()).collect()
    }

    fn u64_vec(&mut self, len: usize) -> Result<Vec<usize>> {
        self.expect_words(len)?;
        (0..len).map(|_| self.usize()).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl StreamingValmod {
    /// Serializes the full engine state as one checksummed binary image.
    ///
    /// Layout: `MAGIC (8) · body length (u64) · body · word-wise
    /// FNV-1a-64 ([`fnv64_words`]) of everything before the trailer
    /// (u64)`, all little-endian. The image is built in memory and
    /// written in [`WRITE_CHUNK`] pieces; no fsync happens here —
    /// durability policy belongs to [`CheckpointStore`].
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`] when the sink fails (including injected
    /// faults at site `ckpt.write`).
    pub fn checkpoint_to(&self, w: &mut impl Write) -> Result<()> {
        // One preallocated buffer for the whole image: header, body, and
        // checksum trailer — a checkpoint serializes a few megabytes, so
        // avoiding the build-then-frame copy matters for the append-path
        // overhead budget.
        let mut enc = Enc { buf: Vec::with_capacity(self.image_size_hint()) };
        enc.buf.extend_from_slice(MAGIC);
        enc.u64(0); // body-length placeholder, patched below
        self.encode_body(&mut enc);
        let body_len = (enc.buf.len() - 16) as u64;
        enc.buf[8..16].copy_from_slice(&body_len.to_le_bytes());
        let sum = fnv64_words(&enc.buf);
        enc.u64(sum);
        for chunk in enc.buf.chunks(WRITE_CHUNK) {
            faults::write_all(w, "ckpt.write", chunk)?;
        }
        Ok(())
    }

    /// Exact byte size of the serialized image (header + body + trailer),
    /// so [`StreamingValmod::checkpoint_to`] allocates once.
    fn image_size_hint(&self) -> usize {
        let per_length: usize = self.lengths.iter().map(|s| 8 * (1 + 3 * s.profile.len())).sum();
        24 + 8 * (10 + self.buffer.as_slice().len() + 3 * self.emitted.mpn.len()) + per_length
    }

    fn encode_body(&self, enc: &mut Enc) {
        // Configuration fingerprint: every field that affects state.
        // Threads and pool are deliberately absent — results are
        // bit-identical for every worker count, so a checkpoint written
        // under 8 threads restores under 1 (and vice versa).
        enc.u64(self.config.l_min as u64);
        enc.u64(self.config.l_max as u64);
        enc.u64(self.config.k as u64);
        enc.u64(self.config.profile_size as u64);
        enc.u64(self.config.exclusion_den as u64);
        enc.opt(self.buffer.capacity());
        enc.f64(self.stats.center);
        enc.u64(self.version);
        let data = self.buffer.as_slice();
        enc.u64(data.len() as u64);
        for &v in data {
            enc.f64(v);
        }
        enc.u64(self.emitted.mpn.len() as u64);
        for &v in &self.emitted.mpn {
            enc.f64(v);
        }
        for &v in &self.emitted.ip {
            enc.opt(v);
        }
        for &v in &self.emitted.lp {
            enc.u64(v as u64);
        }
        for state in &self.lengths {
            enc.u64(state.profile.len() as u64);
            for &v in &state.profile.values {
                enc.f64(v);
            }
            for &v in &state.profile.indices {
                enc.opt(v);
            }
            for &v in &state.last_qt {
                enc.f64(v);
            }
        }
    }

    /// Restores an engine from a checkpoint image, verifying magic,
    /// length prefix, checksum, configuration fingerprint, and
    /// structural consistency before rebuilding.
    ///
    /// `config` supplies the runtime-only settings (threads, pool); its
    /// state-affecting fields must match the fingerprint in the image.
    ///
    /// # Errors
    ///
    /// [`SeriesError::CheckpointCorrupt`] for any truncation, bit flip,
    /// or structural inconsistency; [`SeriesError::CheckpointMismatch`]
    /// when the image was written under an incompatible configuration;
    /// [`SeriesError::Io`] when the source fails.
    pub fn restore_from(r: &mut impl Read, config: &ValmodConfig) -> Result<Self> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::restore_from_bytes(&bytes, config)
    }

    /// [`StreamingValmod::restore_from`] over an in-memory image.
    ///
    /// # Errors
    ///
    /// As [`StreamingValmod::restore_from`], minus the I/O.
    pub fn restore_from_bytes(bytes: &[u8], config: &ValmodConfig) -> Result<Self> {
        if bytes.len() < 24 {
            return Err(corrupt(format!(
                "image of {} bytes is shorter than the envelope",
                bytes.len()
            )));
        }
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic (not a valmod checkpoint, or a newer format version)"));
        }
        let body_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let expect = (bytes.len() - 24) as u64;
        if body_len != expect {
            return Err(corrupt(format!(
                "length prefix says {body_len} body bytes, found {expect}"
            )));
        }
        let split = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[split..].try_into().expect("8 bytes"));
        let actual = fnv64_words(&bytes[..split]);
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch (stored {stored:016x}, computed {actual:016x})"
            )));
        }
        let mut dec = Dec { buf: &bytes[16..split], pos: 0 };
        Self::decode_body(&mut dec, config)
    }

    fn decode_body(dec: &mut Dec<'_>, config: &ValmodConfig) -> Result<Self> {
        let fields = [
            ("l_min", config.l_min),
            ("l_max", config.l_max),
            ("k", config.k),
            ("p", config.profile_size),
            ("exclusion denominator", config.exclusion_den),
        ];
        for (name, ours) in fields {
            let theirs = dec.usize()?;
            if theirs != ours {
                return Err(SeriesError::CheckpointMismatch {
                    detail: format!("{name} {theirs} in the checkpoint vs {ours} configured"),
                });
            }
        }
        let capacity = dec.opt()?;
        let center = dec.f64()?;
        let version = dec.u64()?;
        let n = dec.usize()?;
        let data = dec.f64_vec(n)?;
        config.validate(n).map_err(|e| corrupt(format!("stored series is unusable: {e}")))?;
        let emitted_len = dec.usize()?;
        if emitted_len > n {
            return Err(corrupt(format!("emitted VALMAP of {emitted_len} entries for {n} points")));
        }
        let emitted = EmittedValmap {
            mpn: dec.f64_vec(emitted_len)?,
            ip: dec.opt_vec(emitted_len)?,
            lp: dec.u64_vec(emitted_len)?,
        };

        let reserve = capacity.unwrap_or(n);
        let buffer = match capacity {
            Some(cap) => RingBuffer::bounded(&data, cap).map_err(|_| {
                corrupt(format!("{n} stored points exceed the stored capacity {cap}"))
            })?,
            None => RingBuffer::unbounded(&data),
        };
        // Bit-identical rebuild: the same values, the same fixed center,
        // the same push order as the live engine's accumulation.
        let stats = StreamStats::rebuild(center, &data, reserve);

        let mut lengths = Vec::with_capacity(config.l_max - config.l_min + 1);
        for length in config.l_min..=config.l_max {
            let m = dec.usize()?;
            if m != n - length + 1 {
                return Err(corrupt(format!(
                    "length {length} stores {m} entries, expected {} for {n} points",
                    n - length + 1
                )));
            }
            let per_len_reserve = reserve - length + 1;
            let mut values = dec.f64_vec(m)?;
            let mut indices = dec.opt_vec(m)?;
            let mut last_qt = dec.f64_vec(m)?;
            if let Some(bad) = indices.iter().flatten().find(|&&j| j >= m) {
                return Err(corrupt(format!(
                    "neighbor index {bad} out of range at length {length}"
                )));
            }
            reserve_extra(&mut values, per_len_reserve);
            reserve_extra(&mut indices, per_len_reserve);
            reserve_extra(&mut last_qt, per_len_reserve);
            // Per-window statistics are memoized from the write-once
            // prefix sums: recomputing each window reproduces the exact
            // bits the live engine pushed.
            let mut means = Vec::with_capacity(per_len_reserve);
            let mut stds = Vec::with_capacity(per_len_reserve);
            for i in 0..m {
                means.push(stats.mean(i, length));
                stds.push(stats.std(i, length));
            }
            let profile = MatrixProfile {
                window: length,
                exclusion: config.exclusion(length),
                values,
                indices,
            };
            let (pair_tree, discord_tree) = LengthState::built_trees(&profile);
            lengths.push(LengthState {
                length,
                exclusion: config.exclusion(length),
                profile,
                last_qt,
                means,
                stds,
                pair_tree,
                discord_tree,
            });
        }
        if !dec.done() {
            return Err(corrupt("trailing bytes after the last length state"));
        }
        Ok(Self {
            config: config.clone(),
            buffer,
            stats,
            lengths,
            cross: Vec::with_capacity(reserve),
            version,
            live: None,
            emitted,
        })
    }
}

/// The per-sample write-ahead journal between checkpoints.
///
/// Text format, one fixed-width record per line so a torn tail is
/// detectable by length alone:
///
/// ```text
/// valmod-journal gen=3 start=412
/// 3ff3c083126e978d 9f86d081884c7d65
/// ...
/// ```
///
/// Each record is the sample's IEEE-754 bits and an FNV-1a-64 over those
/// bits plus the sample's *absolute* index — so a record that is torn,
/// bit-flipped, or replayed at the wrong position all fail the same
/// checksum. Replay stops at the first invalid or incomplete record:
/// everything before a torn tail is recovered, the tail is discarded.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    next_index: u64,
}

/// One journal record's checksum: over the value bits then the absolute
/// sample index, both little-endian.
fn record_sum(bits: u64, index: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&bits.to_le_bytes());
    bytes[8..].copy_from_slice(&index.to_le_bytes());
    fnv64(&bytes)
}

impl JournalWriter {
    /// Creates the journal for generation `gen`, whose first record will
    /// be the sample at absolute index `start`, and makes the header
    /// durable.
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`] (fault sites `journal.create`,
    /// `journal.write`, `journal.sync`).
    pub fn create(path: &Path, gen: u64, start: u64) -> Result<Self> {
        faults::check("journal.create")?;
        let mut file = File::create(path)?;
        faults::write_all(
            &mut file,
            "journal.write",
            format!("valmod-journal gen={gen} start={start}\n").as_bytes(),
        )?;
        faults::check("journal.sync")?;
        file.sync_all()?;
        Ok(Self { file, next_index: start })
    }

    /// Appends one sample record (buffered by the OS until
    /// [`JournalWriter::sync`]).
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`] (fault site `journal.write`).
    pub fn append(&mut self, value: f64) -> Result<()> {
        let bits = value.to_bits();
        let sum = record_sum(bits, self.next_index);
        faults::write_all(
            &mut self.file,
            "journal.write",
            format!("{bits:016x} {sum:016x}\n").as_bytes(),
        )?;
        self.next_index += 1;
        Ok(())
    }

    /// Makes everything appended so far durable.
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`] (fault site `journal.sync`).
    pub fn sync(&mut self) -> Result<()> {
        faults::check("journal.sync")?;
        let _fsync_timer = obs::time!(ckpt_fsync_seconds);
        self.file.sync_all()?;
        Ok(())
    }
}

/// A journal read back for replay: its generation, the absolute index of
/// its first sample, and every record up to the first invalid one.
#[derive(Debug)]
struct JournalContents {
    gen: u64,
    start: u64,
    values: Vec<f64>,
}

/// Parses a journal file, tolerating a torn tail (truncated or
/// corrupted trailing records are dropped, everything before them kept).
/// Returns `None` when even the header is unusable — the journal
/// contributes nothing to replay.
fn read_journal(path: &Path) -> Option<JournalContents> {
    let text = fs::read_to_string(path).ok()?;
    let mut lines = text.split_inclusive('\n');
    let header = lines.next()?.strip_suffix('\n')?;
    let rest = header.strip_prefix("valmod-journal gen=")?;
    let (gen_str, start_str) = rest.split_once(" start=")?;
    let gen = gen_str.parse().ok()?;
    let start: u64 = start_str.parse().ok()?;
    let mut values = Vec::new();
    for line in lines {
        // A record missing its newline is a torn tail by definition.
        let Some(record) = line.strip_suffix('\n') else { break };
        let Some((bits_str, sum_str)) = record.split_once(' ') else { break };
        let (Ok(bits), Ok(sum)) =
            (u64::from_str_radix(bits_str, 16), u64::from_str_radix(sum_str, 16))
        else {
            break;
        };
        if bits_str.len() != 16
            || sum_str.len() != 16
            || sum != record_sum(bits, start + values.len() as u64)
        {
            break;
        }
        values.push(f64::from_bits(bits));
    }
    Some(JournalContents { gen, start, values })
}

/// What [`CheckpointStore::recover`] reconstructed.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered engine — bit-identical to the live engine at the
    /// recovered sample count.
    pub engine: StreamingValmod,
    /// Generation of the checkpoint that restored cleanly.
    pub generation: u64,
    /// Samples replayed from journals on top of that checkpoint.
    pub replayed: u64,
    /// Newer checkpoint generations that failed validation and were
    /// skipped (0 = the newest was fine).
    pub fell_back: u64,
}

/// Escapes a tenant name into a filesystem-safe, collision-free
/// directory component: ASCII alphanumerics, `-` and `_` pass through,
/// every other byte becomes `%XX` (uppercase hex). The mapping is
/// injective, so distinct tenant names can never share a directory —
/// including hostile names like `..`, `a/b`, or `a%2Fb` (the `%` itself
/// is escaped).
#[must_use]
pub fn escape_tenant(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Decides *when* each tenant of a shared daemon checkpoints, staggering
/// the write bursts so they never align: every tenant checkpoints once
/// per `cadence` accepted samples, but tenant slots are phase-shifted by
/// the van der Corput (bit-reversal) sequence — slot 0 at offset 0,
/// slot 1 at cadence/2, slot 2 at cadence/4, slot 3 at 3·cadence/4, … —
/// which spreads any prefix of join-order slots near-uniformly across
/// the cadence window without knowing the tenant count up front.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointScheduler {
    cadence: u64,
    phase: u64,
}

impl CheckpointScheduler {
    /// A scheduler for the `slot`-th tenant (join order) at the given
    /// cadence. A zero cadence disables periodic checkpoints.
    #[must_use]
    pub fn new(cadence: u64, slot: u64) -> Self {
        let phase = if cadence == 0 {
            0
        } else {
            // slot.reverse_bits() / 2^64 is the van der Corput point in
            // [0, 1); scale it to the cadence in exact integer math.
            u64::try_from((u128::from(slot.reverse_bits()) * u128::from(cadence)) >> 64)
                .expect("product >> 64 fits u64 because cadence does")
        };
        Self { cadence, phase }
    }

    /// Whether a checkpoint is due after the tenant's `appends`-th
    /// accepted sample (1-based count of post-bootstrap appends).
    #[must_use]
    pub fn due(&self, appends: u64) -> bool {
        self.cadence > 0 && appends > 0 && (appends + self.phase).is_multiple_of(self.cadence)
    }

    /// The slot's phase offset within the cadence window (test hook and
    /// observability).
    #[must_use]
    pub fn phase(&self) -> u64 {
        self.phase
    }
}

/// A directory of generation-numbered checkpoints and journals.
///
/// Files: `ckpt-<gen>.bin` (the engine image at some sample count) and
/// `journal-<gen>.log` (the samples appended after checkpoint `<gen>`,
/// until checkpoint `<gen>+1`). Checkpoints are published atomically:
/// written to `ckpt-<gen>.tmp`, fsync'd, renamed over the final name,
/// then the directory is fsync'd — a crash at any point leaves either
/// the old generation set or the new one, never a half-written published
/// image. The last [`KEEP_GENERATIONS`] generations are kept so a
/// corrupt newest image falls back to its predecessor plus a longer
/// journal replay.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Generation of the most recently begun checkpoint (the one the
    /// open journal follows); `None` before the first checkpoint.
    gen: Option<u64>,
    journal: Option<JournalWriter>,
}

fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, gen: None, journal: None })
    }

    /// Opens the tenant-namespaced store `root/tenants/<escaped name>/`.
    /// Every tenant of a multi-tenant daemon gets its own generation
    /// sequence and journal chain, fully isolated from its neighbors —
    /// recovery of one tenant never reads another's files.
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`] when the directory cannot be created.
    pub fn open_tenant(root: impl AsRef<Path>, name: &str) -> Result<Self> {
        Self::open(root.as_ref().join("tenants").join(escape_tenant(name)))
    }

    /// The directory this store persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the directory already holds checkpoint or journal state
    /// from a previous session.
    #[must_use]
    pub fn has_state(&self) -> bool {
        !self.checkpoint_gens().is_empty()
            || fs::read_dir(&self.dir).is_ok_and(|entries| {
                entries.flatten().any(|e| {
                    let name = e.file_name();
                    parse_gen(&name.to_string_lossy(), "journal-", ".log").is_some()
                })
            })
    }

    fn ckpt_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{gen:08}.bin"))
    }

    fn journal_path(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("journal-{gen:08}.log"))
    }

    /// Published checkpoint generations, ascending.
    fn checkpoint_gens(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.dir) else { return Vec::new() };
        let mut gens: Vec<u64> = entries
            .flatten()
            .filter_map(|e| parse_gen(&e.file_name().to_string_lossy(), "ckpt-", ".bin"))
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Writes the next checkpoint generation atomically, prunes old
    /// generations, and opens the follow-on journal. The first call in a
    /// fresh directory writes generation 0 — call it right after
    /// bootstrap (or recovery) so the journal always has a checkpoint to
    /// replay onto.
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`] from any step (fault sites `ckpt.create`,
    /// `ckpt.write`, `ckpt.sync`, `ckpt.rename`, `ckpt.dirsync`, then
    /// the journal-creation sites). On error the published state is
    /// whatever the previous generation left — recovery stays possible.
    pub fn checkpoint(&mut self, engine: &StreamingValmod) -> Result<u64> {
        let _ckpt_span = obs::span("checkpoint", obs::Layer::Persist);
        // Close out the current journal durably before publishing the
        // image that supersedes it: if the checkpoint fails partway, the
        // previous generation + this journal still reconstruct everything.
        if let Some(journal) = &mut self.journal {
            journal.sync()?;
        }
        let gen = self.gen.map_or(0, |g| g + 1);
        let tmp = self.dir.join(format!("ckpt-{gen:08}.tmp"));
        faults::check("ckpt.create")?;
        let mut file = File::create(&tmp)?;
        {
            let _serialize_timer = obs::time!(ckpt_serialize_seconds);
            engine.checkpoint_to(&mut file)?;
        }
        faults::check("ckpt.sync")?;
        {
            let _fsync_timer = obs::time!(ckpt_fsync_seconds);
            file.sync_all()?;
        }
        drop(file);
        faults::check("ckpt.rename")?;
        fs::rename(&tmp, self.ckpt_path(gen))?;
        // Make the rename itself durable: fsync the directory entry.
        faults::check("ckpt.dirsync")?;
        {
            let _fsync_timer = obs::time!(ckpt_fsync_seconds);
            File::open(&self.dir)?.sync_all()?;
        }
        obs::count!(ckpt_published, 1);

        self.journal = None;
        self.gen = Some(gen);
        for old in self.checkpoint_gens() {
            if old + KEEP_GENERATIONS <= gen {
                // Best-effort pruning: a leftover file is harmless.
                let _ = fs::remove_file(self.ckpt_path(old));
                let _ = fs::remove_file(self.journal_path(old));
            }
        }
        self.journal =
            Some(JournalWriter::create(&self.journal_path(gen), gen, engine.len() as u64)?);
        Ok(gen)
    }

    /// Journals one appended sample. Call after the engine accepted it,
    /// so a replayed journal can never contain a sample the engine
    /// rejected.
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`], or if called before the first
    /// [`CheckpointStore::checkpoint`].
    pub fn journal_sample(&mut self, value: f64) -> Result<()> {
        let journal = self
            .journal
            .as_mut()
            .ok_or_else(|| corrupt("journal_sample before the first checkpoint"))?;
        journal.append(value)
    }

    /// Fsyncs the open journal (the batch boundary of the durability
    /// policy: everything journaled before a successful sync survives a
    /// crash).
    ///
    /// # Errors
    ///
    /// [`SeriesError::Io`].
    pub fn sync_journal(&mut self) -> Result<()> {
        match &mut self.journal {
            Some(journal) => journal.sync(),
            None => Ok(()),
        }
    }

    /// Reconstructs the newest recoverable engine state: newest *valid*
    /// checkpoint (walking back over corrupt/truncated/unreadable
    /// generations), then every contiguous journal replayed through the
    /// per-point append path. Returns `None` when the directory holds no
    /// checkpoints at all.
    ///
    /// Call [`CheckpointStore::checkpoint`] immediately after a
    /// successful recovery: it seals the recovered state into a fresh
    /// generation instead of appending to a possibly-torn journal tail.
    ///
    /// # Errors
    ///
    /// [`SeriesError::CheckpointMismatch`] when a checkpoint was written
    /// under an incompatible configuration (this is a caller error, not
    /// corruption — falling back would silently compute wrong answers);
    /// [`SeriesError::CheckpointCorrupt`] when every generation failed
    /// validation.
    pub fn recover(&mut self, config: &ValmodConfig) -> Result<Option<Recovery>> {
        let _recover_span = obs::span("recover", obs::Layer::Persist);
        let gens = self.checkpoint_gens();
        let Some(&newest) = gens.last() else { return Ok(None) };
        self.gen = Some(newest);
        let mut fell_back = 0u64;
        let mut last_err: Option<SeriesError> = None;
        for &gen in gens.iter().rev() {
            let restore_timer = obs::time!(ckpt_restore_seconds);
            let restored = faults::check("ckpt.read")
                .map_err(SeriesError::from)
                .and_then(|()| Ok(File::open(self.ckpt_path(gen))?))
                .and_then(|mut f| StreamingValmod::restore_from(&mut f, config));
            drop(restore_timer);
            let mut engine = match restored {
                Ok(engine) => engine,
                Err(e @ SeriesError::CheckpointMismatch { .. }) => return Err(e),
                Err(e) => {
                    fell_back += 1;
                    last_err = Some(e);
                    continue;
                }
            };
            // Replay journals gen, gen+1, ... while each picks up exactly
            // where the engine stands; a gap or torn journal ends replay.
            let mut replayed = 0u64;
            let mut at = gen;
            while let Some(journal) = read_journal(&self.journal_path(at)) {
                if journal.gen != at || journal.start > engine.len() as u64 {
                    break;
                }
                let skip = (engine.len() as u64 - journal.start) as usize;
                for &value in journal.values.iter().skip(skip) {
                    // The same per-point path the live session fed —
                    // never the batched extend, whose FFT-amortized
                    // arithmetic orders differently.
                    engine.try_append(value).map_err(|e| {
                        corrupt(format!("journal {at} replays a rejected sample: {e}"))
                    })?;
                    replayed += 1;
                }
                at += 1;
            }
            obs::count!(journal_replayed, replayed);
            return Ok(Some(Recovery { engine, generation: gen, replayed, fell_back }));
        }
        Err(last_err.unwrap_or_else(|| corrupt("no recoverable checkpoint generation")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_series::gen;

    fn small_engine(n: usize) -> StreamingValmod {
        let series = gen::random_walk(n, 11);
        let config = ValmodConfig::new(8, 12).with_k(2).with_threads(1);
        let mut engine = StreamingValmod::new(&series[..n - 10], config).unwrap();
        for &v in &series[n - 10..] {
            engine.append(v);
        }
        engine
    }

    fn image(engine: &StreamingValmod) -> Vec<u8> {
        let mut buf = Vec::new();
        engine.checkpoint_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn tenant_escaping_is_injective_and_filesystem_safe() {
        let names = ["alice", "a/b", "a%2Fb", "a%b", "..", ".", "ü", "a b", "A", "a", "-", "_x9"];
        let escaped: Vec<String> = names.iter().map(|n| escape_tenant(n)).collect();
        for (i, e) in escaped.iter().enumerate() {
            assert!(
                e.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "{:?} -> {e:?} has unsafe bytes",
                names[i]
            );
            for (k, other) in escaped.iter().enumerate() {
                assert!(i == k || e != other, "{:?} and {:?} collide", names[i], names[k]);
            }
        }
        assert_eq!(escape_tenant("a/b"), "a%2Fb");
        assert_eq!(escape_tenant(".."), "%2E%2E");
    }

    #[test]
    fn tenant_stores_are_isolated_directories() {
        let root = std::env::temp_dir().join(format!("valmod-tenant-store-{}", std::process::id()));
        let engine = small_engine(110);
        let mut a = CheckpointStore::open_tenant(&root, "a/b").unwrap();
        let b = CheckpointStore::open_tenant(&root, "a%2Fb").unwrap();
        assert_ne!(a.dir(), b.dir());
        a.checkpoint(&engine).unwrap();
        assert!(a.has_state());
        assert!(!b.has_state(), "one tenant's checkpoints must not leak into another's");
        let reopened = CheckpointStore::open_tenant(&root, "a/b").unwrap();
        assert!(reopened.has_state());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scheduler_staggers_slots_across_the_cadence_window() {
        let cadence = 16u64;
        // The van der Corput phases of the first four slots quarter the
        // window: 0, 1/2, 1/4, 3/4.
        let phases: Vec<u64> =
            (0..4).map(|s| CheckpointScheduler::new(cadence, s).phase()).collect();
        assert_eq!(phases, vec![0, 8, 4, 12]);
        for slot in 0..8 {
            let sched = CheckpointScheduler::new(cadence, slot);
            let due: Vec<u64> = (1..=64).filter(|&a| sched.due(a)).collect();
            assert_eq!(due.len(), 4, "every slot checkpoints once per cadence");
            assert!(due.windows(2).all(|w| w[1] - w[0] == cadence));
            assert!(!sched.due(0), "the bootstrap checkpoint is not the scheduler's job");
        }
        // Zero cadence disables periodic checkpoints outright.
        assert!((0..100).all(|a| !CheckpointScheduler::new(0, 3).due(a)));
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let mut engine = small_engine(120);
        let buf = image(&engine);
        let mut restored = StreamingValmod::restore_from_bytes(&buf, engine.config()).unwrap();
        assert_eq!(restored.len(), engine.len());
        assert_eq!(restored.version(), engine.version());
        let (a, b) = (engine.valmap().clone(), restored.valmap().clone());
        assert_eq!(a.ip, b.ip);
        assert_eq!(a.lp, b.lp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.mpn), bits(&b.mpn));
        // And the images themselves are stable: re-checkpointing the
        // restored engine reproduces the same bytes.
        assert_eq!(buf, image(&restored));
    }

    #[test]
    fn envelope_violations_are_typed_corruption() {
        let engine = small_engine(110);
        let buf = image(&engine);
        let config = engine.config();
        // Truncated mid-header.
        for cut in [0, 7, 15, 23] {
            assert!(matches!(
                StreamingValmod::restore_from_bytes(&buf[..cut], config),
                Err(SeriesError::CheckpointCorrupt { .. })
            ));
        }
        // Truncated mid-body (length prefix disagrees).
        assert!(matches!(
            StreamingValmod::restore_from_bytes(&buf[..buf.len() - 9], config),
            Err(SeriesError::CheckpointCorrupt { .. })
        ));
        // One flipped bit anywhere fails the checksum.
        for at in [8, 24, buf.len() / 2, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            assert!(matches!(
                StreamingValmod::restore_from_bytes(&bad, config),
                Err(SeriesError::CheckpointCorrupt { .. })
            ));
        }
        // Wrong magic reports corruption, not a parse panic.
        let mut bad = buf;
        bad[0] = b'X';
        assert!(matches!(
            StreamingValmod::restore_from_bytes(&bad, config),
            Err(SeriesError::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn config_fingerprint_mismatch_is_typed() {
        let engine = small_engine(110);
        let buf = image(&engine);
        let shifted = ValmodConfig::new(8, 13).with_k(2).with_threads(1);
        match StreamingValmod::restore_from_bytes(&buf, &shifted) {
            Err(SeriesError::CheckpointMismatch { detail }) => {
                assert!(detail.contains("l_max"), "{detail}");
            }
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        // Threads may differ: that is a runtime knob, not state.
        let threaded = ValmodConfig::new(8, 12).with_k(2).with_threads(8);
        assert!(StreamingValmod::restore_from_bytes(&buf, &threaded).is_ok());
    }

    #[test]
    fn journal_round_trips_and_tolerates_torn_tails() {
        let dir = std::env::temp_dir().join(format!("valmod-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-00000003.log");
        let values = [1.5, -2.25, f64::MIN_POSITIVE, 1e150];
        {
            let mut w = JournalWriter::create(&path, 3, 412).unwrap();
            for &v in &values {
                w.append(v).unwrap();
            }
            w.sync().unwrap();
        }
        let full = read_journal(&path).unwrap();
        assert_eq!((full.gen, full.start), (3, 412));
        assert_eq!(full.values, values);

        // Tear the tail mid-record: the complete records survive.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let torn = read_journal(&path).unwrap();
        assert_eq!(torn.values, &values[..3]);

        // Flip a bit in the middle record: replay stops *before* it.
        let mut flipped = bytes.clone();
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        flipped[header_len + 34 + 2] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        assert_eq!(read_journal(&path).unwrap().values, &values[..1]);

        // A torn header voids the whole journal.
        fs::write(&path, &bytes[..10]).unwrap();
        assert!(read_journal(&path).is_none());
        fs::remove_file(&path).unwrap();
    }
}
