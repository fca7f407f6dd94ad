//! On-disk program-image cache.
//!
//! [`Program::generate`] is a pure function of its [`ProgramSpec`], but for
//! the paper-scale profiles it costs tens of milliseconds each — and every
//! figure binary regenerates all 16 benchmarks, so a full
//! `run_experiments.sh` sweep pays 12 × 16 generations for 16 distinct
//! programs. This module memoizes generation on disk: the serialized
//! program is stored under a cache directory keyed by a hash of the spec's
//! canonical byte encoding, and [`load_or_generate`] returns the cached
//! image when present.
//!
//! The cache directory is `target/skia-cache/` by default; the `SKIA_CACHE`
//! environment variable overrides it (`SKIA_CACHE=0` or `off` disables
//! caching entirely). Cache files are versioned and embed the full
//! canonical spec bytes, so a hash collision or a format change falls back
//! to regeneration rather than returning a wrong program. All I/O is
//! best-effort: an unreadable or unwritable cache only costs time, never
//! correctness. Writes go through a temp file + rename so concurrent
//! processes never observe a torn entry.
//!
//! The serialization is hand-rolled little-endian (the derived indexes are
//! rebuilt on load, not stored): the format is private to this module and
//! versioned by its `FORMAT_VERSION` constant, so it can change freely between
//! releases — stale files simply miss.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use skia_isa::BranchKind;

use crate::program::{BasicBlock, BranchMeta, Function, Layout, Program, ProgramSpec};
use crate::trace::RecordedTrace;

/// Process-wide cache I/O totals, accumulated across every program and
/// trace cache operation since process start. Atomics (not registry
/// handles) because the cache is called from arbitrary worker threads and
/// long before any experiment registry exists; the JSON emitter surfaces
/// the totals as `trace_cache.*` counters at finish time.
static IO_BYTES_READ: AtomicU64 = AtomicU64::new(0);
static IO_BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);
static IO_SEEKS: AtomicU64 = AtomicU64::new(0);
static IO_FULL_LOADS: AtomicU64 = AtomicU64::new(0);
static IO_PREFIX_LOADS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide cache I/O totals.
///
/// `seeks` counts per-column positioned reads: a prefix-bounded trace load
/// reads exactly one seeked range per stored column (6 columns), so
/// `seeks == 6 * prefix_loads` when nothing else seeks. `bytes_read` /
/// `bytes_written` count payload bytes actually moved (headers included),
/// not file sizes — a prefix load of 5% of a file adds ~5% of its bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheIo {
    /// Bytes read from cache files (program + trace, headers included).
    pub bytes_read: u64,
    /// Bytes written to cache files (program + trace).
    pub bytes_written: u64,
    /// Positioned per-column reads issued by prefix-bounded trace loads.
    pub seeks: u64,
    /// Trace loads that read the whole file in one pass.
    pub full_loads: u64,
    /// Trace loads that materialized a prefix via column seeks.
    pub prefix_loads: u64,
}

/// Read the process-wide cache I/O totals (monotonic since process start;
/// diff two snapshots to meter a region).
#[must_use]
pub fn trace_cache_io() -> TraceCacheIo {
    TraceCacheIo {
        bytes_read: IO_BYTES_READ.load(Ordering::Relaxed),
        bytes_written: IO_BYTES_WRITTEN.load(Ordering::Relaxed),
        seeks: IO_SEEKS.load(Ordering::Relaxed),
        full_loads: IO_FULL_LOADS.load(Ordering::Relaxed),
        prefix_loads: IO_PREFIX_LOADS.load(Ordering::Relaxed),
    }
}

/// Bumped whenever the on-disk layout or the generator's output changes;
/// mismatched files are regenerated.
const FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"SKIAPROG";

/// Bumped whenever the trace columns or the walker's behaviour change;
/// mismatched files are re-recorded.
const TRACE_FORMAT_VERSION: u32 = 1;

const TRACE_MAGIC: &[u8; 8] = b"SKIATRAC";

/// Generate `spec`'s program, consulting the on-disk cache first.
///
/// Equivalent to [`Program::generate`] in every observable way — the cached
/// round trip reproduces the image bytes, ground-truth metadata and derived
/// indexes exactly (asserted by the round-trip tests below).
#[must_use]
pub fn load_or_generate(spec: &ProgramSpec) -> Program {
    load_or_generate_in(cache_dir().as_deref(), spec)
}

/// [`load_or_generate`] against an explicit cache directory (`None` disables
/// caching). Separated so tests can avoid the `SKIA_CACHE` env var, which is
/// process-global.
#[must_use]
pub fn load_or_generate_in(dir: Option<&Path>, spec: &ProgramSpec) -> Program {
    let Some(dir) = dir else {
        let _g = skia_telemetry::span("program_cache.generate");
        return Program::generate(spec);
    };
    let key = spec_key(spec);
    let path = dir.join(format!("program-{key:016x}-v{FORMAT_VERSION}.bin"));
    {
        let _g = skia_telemetry::span("program_cache.load");
        if let Some(program) = try_load(&path, spec) {
            return program;
        }
    }
    let _g = skia_telemetry::span("program_cache.generate");
    let program = Program::generate(spec);
    store(dir, &path, |w| write_program(w, spec, &program));
    program
}

/// How [`load_or_record_trace`] satisfied a request (telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCacheOutcome {
    /// Served from disk — possibly a prefix of a longer stored trace
    /// (walker determinism makes the prefix exact).
    DiskHit,
    /// Recorded live: cache disabled, entry missing/corrupt/stale, or the
    /// stored trace was shorter than the request (the longer recording
    /// then replaces it).
    Recorded,
}

/// Record `steps` walker steps over `program`, consulting the on-disk trace
/// cache first.
///
/// `spec` must be the spec `program` was generated from — its canonical
/// bytes key and verify the entry exactly as the program cache does, so a
/// trace can never be replayed against the wrong program. A stored trace
/// at least as long as the request serves it as a prefix; a shorter one is
/// replaced by the longer recording.
#[must_use]
pub fn load_or_record_trace(
    program: &Program,
    spec: &ProgramSpec,
    seed: u64,
    mean_trip: u32,
    steps: usize,
) -> (RecordedTrace, TraceCacheOutcome) {
    load_or_record_trace_in(
        cache_dir().as_deref(),
        program,
        spec,
        seed,
        mean_trip,
        steps,
    )
}

/// [`load_or_record_trace`] against an explicit cache directory (`None`
/// disables caching). Separated so tests can avoid the `SKIA_CACHE` env
/// var, which is process-global.
pub fn load_or_record_trace_in(
    dir: Option<&Path>,
    program: &Program,
    spec: &ProgramSpec,
    seed: u64,
    mean_trip: u32,
    steps: usize,
) -> (RecordedTrace, TraceCacheOutcome) {
    let Some(dir) = dir else {
        let _g = skia_telemetry::span("trace_cache.record");
        return (
            RecordedTrace::record(program, seed, mean_trip, steps),
            TraceCacheOutcome::Recorded,
        );
    };
    let key = trace_key(spec, seed, mean_trip);
    let path = dir.join(format!("trace-{key:016x}-v{TRACE_FORMAT_VERSION}.bin"));
    // A prefix-bounded load materializes at most `steps` steps; it comes
    // back shorter only when the stored recording itself is shorter, in
    // which case the walk is re-recorded at the longer length below.
    {
        let _g = skia_telemetry::span("trace_cache.load");
        if let Some(stored) = try_load_trace(&path, spec, seed, mean_trip, Some(steps)) {
            if stored.len() >= steps {
                return (stored, TraceCacheOutcome::DiskHit);
            }
        }
    }
    let _g = skia_telemetry::span("trace_cache.record");
    let trace = RecordedTrace::record(program, seed, mean_trip, steps);
    store(dir, &path, |w| write_trace(w, spec, &trace));
    (trace, TraceCacheOutcome::Recorded)
}

/// Resolve the cache directory: `SKIA_CACHE` env var (a path, or `0`/`off`
/// to disable), else `skia-cache/` inside the build's target directory.
///
/// The default is anchored to the workspace rather than the working
/// directory — `cargo test` sets each test binary's CWD to its crate root,
/// and a CWD-relative default would scatter `target/skia-cache/` dirs
/// across the source tree.
fn cache_dir() -> Option<PathBuf> {
    cache_root()
}

/// The resolved on-disk cache root, honoring `SKIA_CACHE` exactly like the
/// program and trace caches do (`None` when caching is disabled). Other
/// subsystems that persist derived artifacts — e.g. the fuzz corpus — anchor
/// their directories under this root so one env var governs all of them.
#[must_use]
pub fn cache_root() -> Option<PathBuf> {
    match std::env::var("SKIA_CACHE") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") || v.is_empty() => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) => {
            let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
            Some(workspace.join("target").join("skia-cache"))
        }
    }
}

/// FNV-1a 64 over the canonical spec encoding — stable across runs and
/// platforms (unlike `DefaultHasher`, whose output is unspecified).
fn spec_key(spec: &ProgramSpec) -> u64 {
    skia_telemetry::fnv1a(spec_bytes(spec))
}

/// Canonical byte encoding of a spec: every field in declaration order,
/// little-endian, floats via `to_bits`. Embedded in the cache file and
/// compared exactly on load, so the key hash only narrows the candidate —
/// it never decides a match.
fn spec_bytes(spec: &ProgramSpec) -> Vec<u8> {
    let mut out = Vec::with_capacity(160);
    let mut u64le = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    u64le(spec.seed);
    u64le(spec.functions as u64);
    u64le(spec.blocks_per_fn.start as u64);
    u64le(spec.blocks_per_fn.end as u64);
    u64le(spec.insns_per_block.start as u64);
    u64le(spec.insns_per_block.end as u64);
    u64le(spec.cond_fraction.to_bits());
    u64le(spec.call_fraction.to_bits());
    u64le(spec.indirect_fraction.to_bits());
    u64le(spec.zipf_s.to_bits());
    u64le(spec.backedge_fraction.to_bits());
    u64le(u64::from(spec.mean_trip_count));
    u64le(spec.callees_per_fn as u64);
    u64le(spec.leaf_fraction.to_bits());
    u64le(spec.dispatch_blocks as u64);
    u64le(spec.dispatch_callees as u64);
    u64le(spec.burst_pool as u64);
    u64le(spec.burst_prob.to_bits());
    u64le(match spec.layout {
        Layout::Interleaved => 0,
        Layout::Bolted => 1,
    });
    out
}

/// FNV-1a 64 over the trace identity: the program spec's canonical bytes
/// plus the walker parameters. Step count is deliberately excluded — one
/// entry per walk identity, serving any length up to what it stores.
fn trace_key(spec: &ProgramSpec, seed: u64, mean_trip: u32) -> u64 {
    skia_telemetry::fnv1a(trace_ident(spec, seed, mean_trip))
}

/// Canonical identity bytes of a trace: spec encoding ++ seed ++ mean_trip.
/// Embedded in the cache file and compared exactly on load.
fn trace_ident(spec: &ProgramSpec, seed: u64, mean_trip: u32) -> Vec<u8> {
    let mut out = spec_bytes(spec);
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(&mean_trip.to_le_bytes());
    out
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Stream the program entry: header, spec echo, image, then every
/// function's blocks and terminators.
fn write_program(w: &mut impl Write, spec: &ProgramSpec, program: &Program) -> io::Result<()> {
    let image = program.bytes_at(program.base(), program.code_bytes());
    w.write_all(MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    let spec_enc = spec_bytes(spec);
    w.write_all(&(spec_enc.len() as u32).to_le_bytes())?;
    w.write_all(&spec_enc)?;
    w.write_all(&program.base().to_le_bytes())?;
    w.write_all(&(image.len() as u64).to_le_bytes())?;
    w.write_all(image)?;
    let (burst_pool, burst_prob) = program.spec_burst();
    w.write_all(&(burst_pool as u64).to_le_bytes())?;
    w.write_all(&burst_prob.to_bits().to_le_bytes())?;
    w.write_all(&(program.functions().len() as u64).to_le_bytes())?;
    for f in program.functions() {
        w.write_all(&f.entry.to_le_bytes())?;
        w.write_all(&f.weight.to_bits().to_le_bytes())?;
        w.write_all(&(f.blocks.len() as u64).to_le_bytes())?;
        for b in &f.blocks {
            w.write_all(&b.start.to_le_bytes())?;
            w.write_all(&b.insns.to_le_bytes())?;
            let t = &b.terminator;
            w.write_all(&t.pc.to_le_bytes())?;
            w.write_all(&[t.len, kind_code(t.kind)])?;
            match t.target {
                Some(addr) => {
                    w.write_all(&[1])?;
                    w.write_all(&addr.to_le_bytes())?;
                }
                None => w.write_all(&[0])?,
            }
            w.write_all(&t.fallthrough.to_le_bytes())?;
            w.write_all(&(t.indirect_targets.len() as u32).to_le_bytes())?;
            for &addr in &t.indirect_targets {
                w.write_all(&addr.to_le_bytes())?;
            }
            w.write_all(&[u8::from(t.backedge), t.bias])?;
        }
    }
    Ok(())
}

fn kind_code(kind: BranchKind) -> u8 {
    BranchKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every BranchKind is in ALL") as u8
}

/// Infallible little-endian read of up to 4 bytes. The deserializers feed
/// these exact-size `chunks_exact` slices; a fold avoids the
/// `try_into().unwrap()` idiom so no code path between `std::fs::read` and
/// "cache miss" can panic, even on a slice-size bug.
fn le_u32(chunk: &[u8]) -> u32 {
    chunk
        .iter()
        .rev()
        .fold(0u32, |acc, &b| (acc << 8) | u32::from(b))
}

/// Infallible little-endian read of up to 8 bytes; see [`le_u32`].
fn le_u64(chunk: &[u8]) -> u64 {
    chunk
        .iter()
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

/// Cursor-based reader; every method returns `None` on truncation so a
/// corrupt file degrades to a cache miss.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(le_u32)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(le_u64)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Bounded length prefix: caps vector preallocation to what the buffer
    /// could actually hold, so a corrupt length can't balloon memory.
    fn len(&mut self, elem_bytes: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n.saturating_mul(elem_bytes.max(1)) <= self.buf.len() - self.pos.min(self.buf.len()))
            .then_some(n)
    }
}

fn deserialize(bytes: &[u8], spec: &ProgramSpec) -> Option<Program> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC || r.u32()? != FORMAT_VERSION {
        return None;
    }
    let spec_enc = spec_bytes(spec);
    let stored_len = usize::try_from(r.u32()?).ok()?;
    if stored_len != spec_enc.len() || r.take(stored_len)? != spec_enc.as_slice() {
        return None; // hash collision or different generator input
    }
    let base = r.u64()?;
    let image_len = usize::try_from(r.u64()?).ok()?;
    let image = r.take(image_len)?.to_vec();
    let burst_pool = usize::try_from(r.u64()?).ok()?;
    let burst_prob = r.f64()?;
    let nfuncs = r.len(17)?;
    let mut functions = Vec::with_capacity(nfuncs);
    for _ in 0..nfuncs {
        let entry = r.u64()?;
        let weight = r.f64()?;
        let nblocks = r.len(32)?;
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            let start = r.u64()?;
            let insns = r.u32()?;
            let pc = r.u64()?;
            let len = r.u8()?;
            let kind = *BranchKind::ALL.get(usize::from(r.u8()?))?;
            let target = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return None,
            };
            let fallthrough = r.u64()?;
            let ntargets = usize::try_from(r.u32()?).ok()?;
            let mut indirect_targets = Vec::with_capacity(ntargets.min(1024));
            for _ in 0..ntargets {
                indirect_targets.push(r.u64()?);
            }
            let backedge = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let bias = r.u8()?;
            blocks.push(BasicBlock {
                start,
                insns,
                terminator: BranchMeta {
                    pc,
                    len,
                    kind,
                    target,
                    fallthrough,
                    indirect_targets,
                    backedge,
                    bias,
                },
            });
        }
        functions.push(Function {
            entry,
            blocks,
            weight,
        });
    }
    if r.pos != bytes.len() {
        return None; // trailing garbage — treat as corrupt
    }
    Some(Program::from_parts(
        base,
        image,
        functions,
        (burst_pool, burst_prob),
    ))
}

/// Stream the trace entry: header, identity echo, step count, first block
/// start, then each column whole (the layout `try_load_trace` seeks in).
fn write_trace(w: &mut impl Write, spec: &ProgramSpec, trace: &RecordedTrace) -> io::Result<()> {
    w.write_all(TRACE_MAGIC)?;
    w.write_all(&TRACE_FORMAT_VERSION.to_le_bytes())?;
    let ident = trace_ident(spec, trace.seed, trace.mean_trip);
    w.write_all(&(ident.len() as u32).to_le_bytes())?;
    w.write_all(&ident)?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    w.write_all(&trace.first_block_start.to_le_bytes())?;
    write_column(w, &trace.branch_pc, u64::to_le_bytes)?;
    write_column(w, &trace.next_pc, u64::to_le_bytes)?;
    write_column(w, &trace.insns, u32::to_le_bytes)?;
    w.write_all(&trace.kind)?;
    w.write_all(&trace.branch_len)?;
    write_column(w, &trace.taken, u64::to_le_bytes)
}

/// Write `col` little-endian, encoding through a stack buffer so a
/// multi-megabyte column costs a few hundred large writes, not one small
/// write per element.
fn write_column<T: Copy, const N: usize>(
    w: &mut impl Write,
    col: &[T],
    le: fn(T) -> [u8; N],
) -> io::Result<()> {
    let mut buf = [0u8; 8192];
    for chunk in col.chunks(buf.len() / N) {
        for (dst, &v) in buf.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&le(v));
        }
        w.write_all(&buf[..chunk.len() * N])?;
    }
    Ok(())
}

/// Decode a whole stored trace, validating every element: the structural
/// checks (magic, version, exact identity echo, total file size), the kind
/// indices and the taken bits past the step count. Prefix loads go through
/// the seek path of [`try_load_trace`] instead.
fn deserialize_trace(
    bytes: &[u8],
    spec: &ProgramSpec,
    seed: u64,
    mean_trip: u32,
) -> Option<RecordedTrace> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(TRACE_MAGIC.len())? != TRACE_MAGIC || r.u32()? != TRACE_FORMAT_VERSION {
        return None;
    }
    let ident = trace_ident(spec, seed, mean_trip);
    let stored_len = usize::try_from(r.u32()?).ok()?;
    if stored_len != ident.len() || r.take(stored_len)? != ident.as_slice() {
        return None; // hash collision or different walk identity
    }
    let n = r.len(22)?;
    let stored_first = r.u64()?;
    let first_block_start = if n == 0 { 0 } else { stored_first };
    let u64_col = |r: &mut Reader| -> Option<Vec<u64>> {
        Some(r.take(n * 8)?.chunks_exact(8).map(le_u64).collect())
    };
    let branch_pc = u64_col(&mut r)?;
    let next_pc = u64_col(&mut r)?;
    let insns: Vec<u32> = r.take(n * 4)?.chunks_exact(4).map(le_u32).collect();
    let kind = r.take(n)?.to_vec();
    if kind
        .iter()
        .any(|&k| usize::from(k) >= BranchKind::ALL.len())
    {
        return None; // out-of-range kind index — corrupt
    }
    let branch_len = r.take(n)?.to_vec();
    let taken: Vec<u64> = r
        .take(n.div_ceil(64) * 8)?
        .chunks_exact(8)
        .map(le_u64)
        .collect();
    let tail = n % 64;
    if tail != 0 && taken.last().is_some_and(|&w| w >> tail != 0) {
        return None; // stray bits past the step count — corrupt
    }
    if r.pos != bytes.len() {
        return None; // trailing garbage — treat as corrupt
    }
    Some(RecordedTrace {
        seed,
        mean_trip,
        first_block_start,
        branch_pc,
        next_pc,
        insns,
        kind,
        branch_len,
        taken,
    })
}

// ---------------------------------------------------------------------------
// File I/O (best-effort)
// ---------------------------------------------------------------------------

fn try_load(path: &Path, spec: &ProgramSpec) -> Option<Program> {
    let bytes = std::fs::read(path).ok()?;
    IO_BYTES_READ.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    deserialize(&bytes, spec)
}

/// Load a stored trace, materializing at most `want` steps.
///
/// When the request covers the whole file the file is read and decoded in
/// one pass. When the stored trace is longer, only the needed byte ranges —
/// the header plus each column's prefix — are read via seeks, so a hit
/// costs I/O and decode proportional to the *request*, not to the stored
/// length (a 20K-step load from a 400K-step file reads ~5% of it). The
/// structural checks still cover the whole file: magic, version, exact
/// identity echo, and the file size implied by the stored step count.
fn try_load_trace(
    path: &Path,
    spec: &ProgramSpec,
    seed: u64,
    mean_trip: u32,
    want: Option<usize>,
) -> Option<RecordedTrace> {
    use std::io::{Read as _, Seek as _, SeekFrom};

    let mut f = std::fs::File::open(path).ok()?;
    let file_len = f.metadata().ok()?.len();
    let ident = trace_ident(spec, seed, mean_trip);
    // magic + version + ident_len + ident + n + first_block_start
    let header_len = 8 + 4 + 4 + ident.len() + 8 + 8;
    if (file_len as usize) < header_len {
        return None;
    }
    let mut head = vec![0u8; header_len];
    f.read_exact(&mut head).ok()?;
    IO_BYTES_READ.fetch_add(header_len as u64, Ordering::Relaxed);
    let mut r = Reader { buf: &head, pos: 0 };
    if r.take(TRACE_MAGIC.len())? != TRACE_MAGIC || r.u32()? != TRACE_FORMAT_VERSION {
        return None;
    }
    if usize::try_from(r.u32()?).ok()? != ident.len() || r.take(ident.len())? != ident.as_slice() {
        return None; // hash collision or different walk identity
    }
    let n = usize::try_from(r.u64()?).ok()?;
    let expect = (header_len as u64)
        .checked_add((n as u64).checked_mul(22)?)?
        .checked_add((n.div_ceil(64) as u64).checked_mul(8)?)?;
    if file_len != expect {
        return None; // truncated or trailing garbage — treat as corrupt
    }
    let keep = match want {
        Some(w) if w < n => w,
        _ => n,
    };
    if keep == n {
        // Full load: one contiguous read of the remainder.
        let mut rest = vec![0u8; file_len as usize - header_len];
        f.read_exact(&mut rest).ok()?;
        IO_BYTES_READ.fetch_add(rest.len() as u64, Ordering::Relaxed);
        IO_FULL_LOADS.fetch_add(1, Ordering::Relaxed);
        let mut whole = head;
        whole.extend_from_slice(&rest);
        return deserialize_trace(&whole, spec, seed, mean_trip);
    }
    let _g = skia_telemetry::span("trace_cache.seek_prefix");
    IO_PREFIX_LOADS.fetch_add(1, Ordering::Relaxed);
    let stored_first = r.u64()?;
    let first_block_start = if keep == 0 { 0 } else { stored_first };
    // Column prefixes via seeks. Offsets are relative to the column area.
    let base = header_len as u64;
    let mut col = |offset: u64, len: usize| -> Option<Vec<u8>> {
        f.seek(SeekFrom::Start(base + offset)).ok()?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf).ok()?;
        IO_SEEKS.fetch_add(1, Ordering::Relaxed);
        IO_BYTES_READ.fetch_add(len as u64, Ordering::Relaxed);
        Some(buf)
    };
    let n64 = n as u64;
    let u64s = |b: Vec<u8>| -> Vec<u64> { b.chunks_exact(8).map(le_u64).collect() };
    let branch_pc = u64s(col(0, keep * 8)?);
    let next_pc = u64s(col(8 * n64, keep * 8)?);
    let insns: Vec<u32> = col(16 * n64, keep * 4)?
        .chunks_exact(4)
        .map(le_u32)
        .collect();
    let kind = col(20 * n64, keep)?;
    if kind
        .iter()
        .any(|&k| usize::from(k) >= BranchKind::ALL.len())
    {
        return None; // out-of-range kind index — corrupt
    }
    let branch_len = col(21 * n64, keep)?;
    let mut taken = u64s(col(22 * n64, keep.div_ceil(64) * 8)?);
    if keep % 64 != 0 {
        if let Some(last) = taken.last_mut() {
            // Bits past `keep` belong to the stored tail of the recording.
            *last &= (1u64 << (keep % 64)) - 1;
        }
    }
    Some(RecordedTrace {
        seed,
        mean_trip,
        first_block_start,
        branch_pc,
        next_pc,
        insns,
        kind,
        branch_len,
        taken,
    })
}

/// Per-process sequence number folded into temp-file names. The process id
/// alone is not enough: two *threads* of one process storing the same key
/// would share a temp path and interleave writes, producing a torn entry
/// that the rename then publishes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Store a cache entry at `path`: `write` streams it through a buffered
/// temp file in `dir`, which is then renamed into place (atomic on POSIX),
/// so concurrent readers never observe a torn entry. Best-effort: on any
/// failure the temp file is removed and `path` is left as it was. Meters
/// the bytes of every fully written entry.
fn store(
    dir: &Path,
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> io::Result<()>,
) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    // Unique temp name per process *and thread of execution* so concurrent
    // sweeps don't clobber each other mid-write.
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = dir.join(format!(
        ".tmp-{name}-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::File::create(&tmp).and_then(|f| {
        let mut w = io::BufWriter::with_capacity(1 << 16, f);
        write(&mut w)?;
        let mut f = w.into_inner().map_err(io::IntoInnerError::into_error)?;
        io::Seek::stream_position(&mut f)
    });
    let published = written.is_ok_and(|bytes| {
        IO_BYTES_WRITTEN.fetch_add(bytes, Ordering::Relaxed);
        std::fs::rename(&tmp, path).is_ok()
    });
    if !published {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that set `SKIA_CACHE`: the env var is
    /// process-global, so the two tests below that scope it must never
    /// overlap (every other cache test passes explicit paths).
    static CACHE_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn test_spec() -> ProgramSpec {
        ProgramSpec {
            functions: 60,
            ..ProgramSpec::default()
        }
    }

    fn serialize(spec: &ProgramSpec, program: &Program) -> Vec<u8> {
        let mut out = Vec::new();
        write_program(&mut out, spec, program).expect("writing to a Vec cannot fail");
        out
    }

    fn serialize_trace(spec: &ProgramSpec, trace: &RecordedTrace) -> Vec<u8> {
        let mut out = Vec::new();
        write_trace(&mut out, spec, trace).expect("writing to a Vec cannot fail");
        out
    }

    fn assert_programs_equal(a: &Program, b: &Program) {
        assert_eq!(a.base(), b.base());
        assert_eq!(a.code_bytes(), b.code_bytes());
        assert_eq!(
            a.bytes_at(a.base(), a.code_bytes()),
            b.bytes_at(b.base(), b.code_bytes())
        );
        assert_eq!(a.spec_burst(), b.spec_burst());
        assert_eq!(a.functions(), b.functions());
        // Derived indexes must be rebuilt faithfully.
        for f in a.functions() {
            for blk in &f.blocks {
                assert_eq!(a.locate_block(blk.start), b.locate_block(blk.start));
                assert_eq!(
                    a.locate_branch(blk.terminator.pc),
                    b.locate_branch(blk.terminator.pc)
                );
            }
        }
    }

    #[test]
    fn serialize_round_trips_exactly() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let bytes = serialize(&spec, &program);
        let loaded = deserialize(&bytes, &spec).expect("round trip");
        assert_programs_equal(&program, &loaded);
    }

    #[test]
    fn deserialize_rejects_wrong_spec() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let bytes = serialize(&spec, &program);
        let other = ProgramSpec {
            seed: spec.seed ^ 1,
            ..test_spec()
        };
        assert!(deserialize(&bytes, &other).is_none());
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let bytes = serialize(&spec, &program);
        assert!(deserialize(&bytes[..bytes.len() - 1], &spec).is_none());
        assert!(deserialize(&bytes[1..], &spec).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(deserialize(&trailing, &spec).is_none());
    }

    #[test]
    fn spec_key_is_stable_and_distinguishes() {
        let a = spec_key(&test_spec());
        assert_eq!(a, spec_key(&test_spec()), "same spec, same key");
        let other = ProgramSpec {
            zipf_s: 1.2,
            ..test_spec()
        };
        assert_ne!(a, spec_key(&other));
        let bolted = ProgramSpec {
            layout: Layout::Bolted,
            ..test_spec()
        };
        assert_ne!(a, spec_key(&bolted));
    }

    #[test]
    fn load_or_generate_survives_corruption_and_version_bumps() {
        // The env var is scoped to this test (under CACHE_ENV_LOCK) and
        // restored at the end, so parallel test threads never observe the
        // override.
        let _env = CACHE_ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("skia-cache-robust-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let prior = std::env::var("SKIA_CACHE").ok();
        std::env::set_var("SKIA_CACHE", &dir);

        let spec = ProgramSpec {
            seed: 0xCAC4E,
            ..test_spec()
        };
        let path = dir.join(format!(
            "program-{:016x}-v{FORMAT_VERSION}.bin",
            spec_key(&spec)
        ));
        let reference = Program::generate(&spec);

        // First call populates the cache.
        assert_programs_equal(&reference, &load_or_generate(&spec));
        assert!(path.exists(), "store after miss");
        let good = std::fs::read(&path).unwrap();

        // Truncated entry: falls back to regeneration without panicking,
        // and the rewrite repairs the file.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_programs_equal(&reference, &load_or_generate(&spec));
        assert_eq!(std::fs::read(&path).unwrap(), good, "repaired on reload");

        // Arbitrary garbage: same fallback.
        std::fs::write(&path, b"not a cache entry at all").unwrap();
        assert_programs_equal(&reference, &load_or_generate(&spec));

        // Flipped byte inside the image payload: the trailing-length check
        // still rejects or the spec echo mismatches — either way the loader
        // must not return a silently-wrong program. Flip a byte in the
        // embedded spec encoding (right after magic + version + length).
        let mut flipped = good.clone();
        flipped[MAGIC.len() + 4 + 4] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        assert_programs_equal(&reference, &load_or_generate(&spec));

        // Version bump: an entry whose embedded format version is newer (or
        // older) misses, regenerates, and never panics.
        let mut bumped = good.clone();
        bumped[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bumped).unwrap();
        assert!(
            deserialize(&bumped, &spec).is_none(),
            "bumped version misses"
        );
        assert_programs_equal(&reference, &load_or_generate(&spec));

        match prior {
            Some(v) => std::env::set_var("SKIA_CACHE", v),
            None => std::env::remove_var("SKIA_CACHE"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unwritable (or unreadable-for-new-entries) cache directory must
    /// only cost time: `SKIA_CACHE` pointing at a read-only dir still
    /// produces correct programs and traces, and a pre-populated entry in a
    /// read-only dir is still served.
    #[test]
    #[cfg(unix)]
    fn read_only_cache_dir_degrades_to_regeneration() {
        use std::os::unix::fs::PermissionsExt as _;

        let _env = CACHE_ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("skia-cache-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let spec = ProgramSpec {
            seed: 0x0D1,
            ..test_spec()
        };
        let reference = Program::generate(&spec);

        // Pre-populate one entry while the dir is still writable, then make
        // the dir read-only (r-x: readable, not writable).
        let hot = ProgramSpec {
            seed: 0x0D2,
            ..test_spec()
        };
        let hot_path = dir.join(format!(
            "program-{:016x}-v{FORMAT_VERSION}.bin",
            spec_key(&hot)
        ));
        let hot_reference = Program::generate(&hot);
        store(&dir, &hot_path, |w| write_program(w, &hot, &hot_reference));
        assert!(hot_path.exists());
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();

        let prior = std::env::var("SKIA_CACHE").ok();
        std::env::set_var("SKIA_CACHE", &dir);

        // Miss in a read-only dir: generated, store fails silently.
        assert_programs_equal(&reference, &load_or_generate(&spec));
        // Hit in a read-only dir: served from disk.
        assert_programs_equal(&hot_reference, &load_or_generate(&hot));
        // A nested dir that can't be created degrades the same way.
        std::env::set_var("SKIA_CACHE", dir.join("nested"));
        assert_programs_equal(&reference, &load_or_generate(&spec));

        match prior {
            Some(v) => std::env::set_var("SKIA_CACHE", v),
            None => std::env::remove_var("SKIA_CACHE"),
        }

        // Traces degrade the same way (explicit-dir variant, same dir).
        let program = Program::generate(&spec);
        let (trace, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 3, 8, 120);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(trace, RecordedTrace::record(&program, 3, 8, 120));

        // No stray temp files may survive the failed stores.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");

        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_serialize_round_trips_exactly() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let trace = RecordedTrace::record(&program, 42, 8, 777);
        let bytes = serialize_trace(&spec, &trace);
        let loaded = deserialize_trace(&bytes, &spec, 42, 8).expect("round trip");
        assert_eq!(trace, loaded);
    }

    #[test]
    fn trace_deserialize_rejects_wrong_identity() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let trace = RecordedTrace::record(&program, 42, 8, 200);
        let bytes = serialize_trace(&spec, &trace);
        // Different seed, different mean trip, different spec: all miss.
        assert!(deserialize_trace(&bytes, &spec, 43, 8).is_none());
        assert!(deserialize_trace(&bytes, &spec, 42, 9).is_none());
        let other = ProgramSpec {
            seed: spec.seed ^ 1,
            ..test_spec()
        };
        assert!(deserialize_trace(&bytes, &other, 42, 8).is_none());
    }

    #[test]
    fn trace_deserialize_rejects_corruption() {
        let spec = test_spec();
        let program = Program::generate(&spec);
        let trace = RecordedTrace::record(&program, 7, 5, 300);
        let bytes = serialize_trace(&spec, &trace);
        // Truncation, a clobbered header byte, and trailing garbage.
        assert!(deserialize_trace(&bytes[..bytes.len() - 1], &spec, 7, 5).is_none());
        assert!(deserialize_trace(&bytes[1..], &spec, 7, 5).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(deserialize_trace(&trailing, &spec, 7, 5).is_none());
        // An out-of-range kind index in the kind column is caught.
        let mut bad_kind = bytes.clone();
        let kind_off = bytes.len() - 300 /* len */ - 300 /* kind */ - 8 * 300usize.div_ceil(64);
        bad_kind[kind_off] = 0xFF;
        assert!(deserialize_trace(&bad_kind, &spec, 7, 5).is_none());
        // Stray taken bits past the step count are caught.
        let mut bad_taken = bytes.clone();
        let last = bad_taken.len() - 1;
        bad_taken[last] |= 0x80; // bit 63 of the tail word; 300 % 64 == 44
        assert!(deserialize_trace(&bad_taken, &spec, 7, 5).is_none());
    }

    #[test]
    fn trace_key_distinguishes_walk_identity() {
        let spec = test_spec();
        let a = trace_key(&spec, 1, 8);
        assert_eq!(a, trace_key(&spec, 1, 8));
        assert_ne!(a, trace_key(&spec, 2, 8));
        assert_ne!(a, trace_key(&spec, 1, 9));
        let other = ProgramSpec {
            zipf_s: 1.2,
            ..test_spec()
        };
        assert_ne!(a, trace_key(&other, 1, 8));
    }

    #[test]
    fn trace_cache_serves_prefixes_and_upgrades_on_longer_requests() {
        let dir = std::env::temp_dir().join(format!("skia-trace-prefix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = test_spec();
        let program = Program::generate(&spec);

        // Disabled cache records live.
        let (live, outcome) = load_or_record_trace_in(None, &program, &spec, 5, 8, 400);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);

        // First store.
        let (first, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 400);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(live, first);

        // Same length: disk hit, identical trace.
        let (again, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 400);
        assert_eq!(outcome, TraceCacheOutcome::DiskHit);
        assert_eq!(first, again);

        // Shorter request: served as a prefix, equal to a fresh short walk.
        let (short, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 150);
        assert_eq!(outcome, TraceCacheOutcome::DiskHit);
        assert_eq!(short, RecordedTrace::record(&program, 5, 8, 150));

        // Longer request: re-recorded and the entry upgraded, so the next
        // long request hits.
        let (long, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 900);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(long.len(), 900);
        let (long2, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 5, 8, 900);
        assert_eq!(outcome, TraceCacheOutcome::DiskHit);
        assert_eq!(long, long2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_cache_survives_corruption_and_version_bumps() {
        let dir = std::env::temp_dir().join(format!("skia-trace-robust-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ProgramSpec {
            seed: 0x7AC4E,
            ..test_spec()
        };
        let program = Program::generate(&spec);
        let path = dir.join(format!(
            "trace-{:016x}-v{TRACE_FORMAT_VERSION}.bin",
            trace_key(&spec, 9, 6)
        ));
        let reference = RecordedTrace::record(&program, 9, 6, 500);

        // First call populates the cache.
        let (t, _) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(t, reference);
        assert!(path.exists(), "store after miss");
        let good = std::fs::read(&path).unwrap();

        // Truncated entry: falls back to re-recording, and the rewrite
        // repairs the file.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let (t, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(t, reference);
        assert_eq!(std::fs::read(&path).unwrap(), good, "repaired on reload");

        // Arbitrary garbage: same fallback.
        std::fs::write(&path, b"not a trace entry").unwrap();
        let (t, _) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(t, reference);

        // Flipped byte in the embedded identity: exact echo rejects it.
        let mut flipped = good.clone();
        flipped[TRACE_MAGIC.len() + 4 + 4] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        let (t, _) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(t, reference);

        // Version bump: misses, re-records, never panics.
        let mut bumped = good.clone();
        bumped[TRACE_MAGIC.len()..TRACE_MAGIC.len() + 4]
            .copy_from_slice(&(TRACE_FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bumped).unwrap();
        assert!(deserialize_trace(&bumped, &spec, 9, 6).is_none());
        let (t, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 9, 6, 500);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        assert_eq!(t, reference);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The I/O totals are process-wide and other tests run concurrently, so
    /// every assertion here is a *lower bound on the delta* — concurrent
    /// cache traffic can only add to the counters, never subtract.
    #[test]
    fn io_counters_meter_bytes_and_seeks() {
        let dir = std::env::temp_dir().join(format!("skia-cache-io-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ProgramSpec {
            seed: 0x10C0,
            ..test_spec()
        };
        let program = Program::generate(&spec);

        // The stored trace is deliberately large (~1.4 MB) so the prefix
        // upper-bound below has orders-of-magnitude headroom over any bytes
        // concurrent tests might add between the two snapshots.
        const STEPS: usize = 65_536;

        // Store: bytes_written grows by at least the serialized trace size.
        let before = trace_cache_io();
        let (trace, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 11, 8, STEPS);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        let stored_bytes = serialize_trace(&spec, &trace).len() as u64;
        let after_store = trace_cache_io();
        assert!(
            after_store.bytes_written >= before.bytes_written + stored_bytes,
            "store must meter its bytes: {before:?} -> {after_store:?}"
        );

        // Full-length hit: one full load reading the whole file.
        let (_, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 11, 8, STEPS);
        assert_eq!(outcome, TraceCacheOutcome::DiskHit);
        let after_full = trace_cache_io();
        assert!(after_full.full_loads > after_store.full_loads);
        assert!(
            after_full.bytes_read >= after_store.bytes_read + stored_bytes,
            "a full hit reads the whole file"
        );

        // Prefix hit (~1.5% of the file): one prefix load, 6 column seeks,
        // and far fewer bytes than the full file.
        let (short, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 11, 8, 1024);
        assert_eq!(outcome, TraceCacheOutcome::DiskHit);
        assert_eq!(short.len(), 1024);
        let after_prefix = trace_cache_io();
        assert!(after_prefix.prefix_loads > after_full.prefix_loads);
        assert!(after_prefix.seeks >= after_full.seeks + 6, "6 column seeks");
        let prefix_bytes = after_prefix.bytes_read - after_full.bytes_read;
        assert!(
            prefix_bytes < stored_bytes / 2,
            "a ~1.5% prefix load must not read most of the file \
             ({prefix_bytes} of {stored_bytes} bytes)"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The stored bytes are pinned: a fixed spec and walk must write the
    /// exact program and trace files every earlier build wrote, so caches
    /// stay shareable across builds without a format-version bump.
    #[test]
    fn stored_files_are_pinned() {
        let dir = std::env::temp_dir().join(format!("skia-cache-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ProgramSpec {
            seed: 0x5707E,
            ..test_spec()
        };
        let program = load_or_generate_in(Some(&dir), &spec);
        let (_, outcome) = load_or_record_trace_in(Some(&dir), &program, &spec, 4, 6, 5_000);
        assert_eq!(outcome, TraceCacheOutcome::Recorded);
        let digest = |name: String| {
            let bytes = std::fs::read(dir.join(name)).expect("stored file");
            (bytes.len(), skia_telemetry::fnv1a(&bytes))
        };
        let prog = digest(format!(
            "program-{:016x}-v{FORMAT_VERSION}.bin",
            spec_key(&spec)
        ));
        let trace = digest(format!(
            "trace-{:016x}-v{TRACE_FORMAT_VERSION}.bin",
            trace_key(&spec, 4, 6)
        ));
        assert_eq!(prog, (48_568, 0x5e8d_1549_ba37_af6d), "program file");
        assert_eq!(trace, (110_828, 0x71ea_76a8_b769_ba16), "trace file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write that fails midway publishes nothing: no entry, no temp file.
    #[test]
    fn failed_stream_leaves_no_entry_or_temp_file() {
        let dir = std::env::temp_dir().join(format!("skia-cache-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("trace-torn.bin");
        store(&dir, &path, |w| {
            w.write_all(b"half an entry")?;
            Err(io::Error::other("disk full"))
        });
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "nothing may survive: {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_or_generate_hits_its_own_store() {
        let dir = std::env::temp_dir().join(format!("skia-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = test_spec();
        let key = spec_key(&spec);
        let path = dir.join(format!("program-{key:016x}-v{FORMAT_VERSION}.bin"));

        let generated = Program::generate(&spec);
        store(&dir, &path, |w| write_program(w, &spec, &generated));
        let cached = try_load(&path, &spec).expect("stored entry loads");
        assert_programs_equal(&generated, &cached);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
