//! Training checkpoints: save and resume federated runs **bitwise
//! faithfully**.
//!
//! The paper's experiments run for thousands of communication rounds; a
//! production deployment of FedCross needs to survive server restarts without
//! losing the middleware models (which, unlike FedAvg's single global model,
//! are the *only* training state). A [`Checkpoint`] (format
//! [`CHECKPOINT_VERSION`]) persists everything a restart needs:
//!
//! * the complete [`AlgorithmState`] captured by
//!   [`FederatedAlgorithm::snapshot_state`](crate::engine::FederatedAlgorithm::snapshot_state)
//!   — FedCross's middleware list, SCAFFOLD's server and client control
//!   variates, FedGen's distillation teacher, CluSamp's per-client update
//!   directions,
//! * the [`TrainingHistory`] with **absolute** round indices and the
//!   [`CommTracker`] counters accumulated so far,
//! * the simulation seed and a configuration fingerprint, so a resume against
//!   a different configuration fails loudly instead of silently changing the
//!   trajectory.
//!
//! Together with the engine's absolute-round RNG derivation
//! ([`Simulation::run_from`](crate::engine::Simulation::run_from)), a run
//! checkpointed at round `R` and resumed is **bitwise identical** to the
//! uninterrupted run — same global parameters, same history records, same
//! communication totals (pinned by `tests/tests/resume_plane.rs`).
//!
//! On disk a checkpoint is a little-endian binary frame: an 8-byte magic,
//! the format version, a table of seven sections (each with its byte length
//! and a word-wise FNV-1a checksum), then the sections themselves. Floats
//! travel as their raw bits, so every value round-trips exactly, and a
//! flipped bit anywhere in the file fails the load with
//! [`io::ErrorKind::InvalidData`] instead of restoring a different model.
//! docs/CHECKPOINTING.md documents the layout.
//!
//! [`Checkpoint::save`] is atomic (temp file + rename): a crash mid-save
//! never corrupts or truncates an existing checkpoint on disk.

use crate::comm::CommTracker;
use crate::history::{RoundRecord, TrainingHistory};
use fedcross_nn::params::ParamBlock;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Current checkpoint format version. Older versions are no longer readable
/// and fail to load with [`io::ErrorKind::InvalidData`]. Versions 1–3 were
/// JSON documents (version 1 had no algorithm state, comm counters or
/// config fingerprint; version 2 lacked [`AlgorithmState::records`]);
/// version 4 is the binary frame described in the module docs.
pub const CHECKPOINT_VERSION: u32 = 4;

/// The first eight bytes of every checkpoint file.
const MAGIC: [u8; 8] = *b"FXCKPT\r\n";

/// The sections of a checkpoint file, in file order. A section's tag in the
/// section table is its index here plus one.
const SECTIONS: [&str; 7] = [
    "header",
    "models",
    "aux",
    "client_tables",
    "records",
    "history",
    "comm",
];

/// Bytes before the section table: magic, version (`u32`), section count
/// (`u32`).
const PREAMBLE_BYTES: u64 = 16;

/// Bytes of one section-table entry: tag, length and checksum (`u64` each).
const TABLE_ENTRY_BYTES: u64 = 24;

/// Floats converted per buffered chunk when writing or reading a payload.
const CHUNK_FLOATS: usize = 4096;

/// Word-wise FNV-1a over a byte stream, the hash behind the repository's
/// fingerprints: each little-endian 8-byte word is XORed into the state,
/// which is then multiplied by the FNV prime; a trailing partial word is
/// zero-padded. Both steps are bijections of the state for a fixed word, so
/// any change confined to one word always changes the checksum.
#[derive(Debug)]
struct Fnv {
    hash: u64,
    tail: [u8; 8],
    tail_len: usize,
}

impl Fnv {
    fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    fn mix(&mut self, word: [u8; 8]) {
        self.hash = (self.hash ^ u64::from_le_bytes(word)).wrapping_mul(0x100_0000_01b3);
    }

    fn absorb(&mut self, mut bytes: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.mix(self.tail);
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(word.try_into().expect("chunks_exact yields 8-byte words"));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn digest(mut self) -> u64 {
        if self.tail_len > 0 {
            self.tail[self.tail_len..].fill(0);
            self.mix(self.tail);
        }
        self.hash
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// `read_exact`, reporting a file that ends early as [`io::ErrorKind::InvalidData`].
fn read_full<R: Read>(input: &mut R, buf: &mut [u8], what: &str) -> io::Result<()> {
    input.read_exact(buf).map_err(|err| match err.kind() {
        io::ErrorKind::UnexpectedEof => invalid(format!("file ends inside `{what}`")),
        _ => err,
    })
}

/// Streams one section to `out`, counting its bytes and hashing them.
struct SectionWriter<'a, W> {
    out: &'a mut W,
    len: u64,
    hash: Fnv,
}

impl<'a, W: Write> SectionWriter<'a, W> {
    fn new(out: &'a mut W) -> Self {
        Self {
            out,
            len: 0,
            hash: Fnv::new(),
        }
    }

    fn put_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.absorb(bytes);
        self.len += bytes.len() as u64;
        self.out.write_all(bytes)
    }

    fn put_u64(&mut self, value: u64) -> io::Result<()> {
        self.put_bytes(&value.to_le_bytes())
    }

    fn put_len(&mut self, len: usize) -> io::Result<()> {
        self.put_u64(len as u64)
    }

    fn put_str(&mut self, text: &str) -> io::Result<()> {
        self.put_len(text.len())?;
        self.put_bytes(text.as_bytes())
    }

    /// A length-prefixed `f32` payload, written as raw little-endian bits.
    fn put_f32s(&mut self, values: &[f32]) -> io::Result<()> {
        self.put_len(values.len())?;
        let mut buf = [0u8; CHUNK_FLOATS * 4];
        for chunk in values.chunks(CHUNK_FLOATS) {
            for (bytes, value) in buf.chunks_exact_mut(4).zip(chunk) {
                bytes.copy_from_slice(&value.to_le_bytes());
            }
            self.put_bytes(&buf[..chunk.len() * 4])?;
        }
        Ok(())
    }

    /// The section's `(length, checksum)` table entry.
    fn into_table_entry(self) -> (u64, u64) {
        (self.len, self.hash.digest())
    }
}

/// Reads one section from `input`, refusing to read past its declared end
/// and checking its checksum when it is done.
struct SectionReader<'a, R> {
    input: &'a mut R,
    name: &'static str,
    left: u64,
    checksum: u64,
    hash: Fnv,
}

impl<'a, R: Read> SectionReader<'a, R> {
    fn new(input: &'a mut R, name: &'static str, (len, checksum): (u64, u64)) -> Self {
        Self {
            input,
            name,
            left: len,
            checksum,
            hash: Fnv::new(),
        }
    }

    fn take_bytes(&mut self, buf: &mut [u8]) -> io::Result<()> {
        if buf.len() as u64 > self.left {
            return Err(invalid(format!(
                "section `{}` ends inside a field ({} bytes needed, {} left)",
                self.name,
                buf.len(),
                self.left
            )));
        }
        read_full(self.input, buf, self.name)?;
        self.hash.absorb(buf);
        self.left -= buf.len() as u64;
        Ok(())
    }

    fn take_u64(&mut self) -> io::Result<u64> {
        let mut bytes = [0u8; 8];
        self.take_bytes(&mut bytes)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn take_u32(&mut self) -> io::Result<u32> {
        let mut bytes = [0u8; 4];
        self.take_bytes(&mut bytes)?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn take_usize(&mut self) -> io::Result<usize> {
        let value = self.take_u64()?;
        usize::try_from(value).map_err(|_| {
            invalid(format!(
                "value {value} in section `{}` overflows usize",
                self.name
            ))
        })
    }

    /// A length prefix counting items of at least `item_bytes` bytes each,
    /// checked against the bytes left in the section — so no corrupt length
    /// can make the caller allocate more than the file holds.
    fn take_len(&mut self, item_bytes: u64) -> io::Result<usize> {
        let len = self.take_u64()?;
        match len.checked_mul(item_bytes) {
            Some(bytes) if bytes <= self.left => usize::try_from(len).map_err(|_| {
                invalid(format!(
                    "length {len} in section `{}` overflows usize",
                    self.name
                ))
            }),
            _ => Err(invalid(format!(
                "length {len} in section `{}` exceeds the {} bytes left",
                self.name, self.left
            ))),
        }
    }

    fn take_str(&mut self) -> io::Result<String> {
        let mut bytes = vec![0u8; self.take_len(1)?];
        self.take_bytes(&mut bytes)?;
        String::from_utf8(bytes)
            .map_err(|_| invalid(format!("invalid UTF-8 string in section `{}`", self.name)))
    }

    /// A length-prefixed `f32` payload, decoded straight into its vector.
    fn take_f32s(&mut self) -> io::Result<Vec<f32>> {
        let len = self.take_len(4)?;
        let mut values = Vec::with_capacity(len);
        let mut buf = [0u8; CHUNK_FLOATS * 4];
        while values.len() < len {
            let bytes = &mut buf[..(len - values.len()).min(CHUNK_FLOATS) * 4];
            self.take_bytes(bytes)?;
            values.extend(
                bytes
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
            );
        }
        Ok(values)
    }

    /// Ends the section: every declared byte must have been read and the
    /// checksum must match the table.
    fn end_section(self) -> io::Result<()> {
        if self.left != 0 {
            return Err(invalid(format!(
                "section `{}` has {} unread bytes",
                self.name, self.left
            )));
        }
        if self.hash.digest() != self.checksum {
            return Err(invalid(format!(
                "checksum mismatch in section `{}`",
                self.name
            )));
        }
        Ok(())
    }
}

/// The format version of a pre-binary (JSON) checkpoint whose first bytes
/// are `prefix`, if its `"version"` field can be found there.
fn json_version(prefix: &[u8]) -> Option<u64> {
    let key = b"\"version\"";
    let at = prefix.windows(key.len()).position(|w| w == key)? + key.len();
    let rest = prefix[at..]
        .trim_ascii_start()
        .strip_prefix(b":")?
        .trim_ascii_start();
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// An error while capturing or restoring an [`AlgorithmState`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateError {
    message: String,
}

impl StateError {
    /// Creates a state error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "algorithm state: {}", self.message)
    }
}

impl std::error::Error for StateError {}

/// A per-client vector table: `(client id, vector)` entries sorted by client
/// id. SCAFFOLD's client control variates and CluSamp's update directions
/// are stored in this shape.
pub type ClientTable = Vec<(usize, Vec<f32>)>;

/// The complete server-side training state of a [`FederatedAlgorithm`]
/// (`crate::engine::FederatedAlgorithm`), in a shape every method of the
/// paper fits into:
///
/// * single-model methods (FedAvg, FedProx, FedGen, CluSamp, SCAFFOLD) store
///   their global model as the one entry of [`AlgorithmState::models`];
/// * FedCross stores its `K` middleware models there **in slot order** (the
///   order is part of the training state — cross-aggregation partners are
///   chosen per slot);
/// * model-shaped auxiliary vectors (SCAFFOLD's server control variate,
///   FedGen's distillation teacher) go into [`AlgorithmState::aux`] by name;
/// * per-client tables (SCAFFOLD's client control variates, CluSamp's update
///   directions, compressed FedAvg's error-feedback residuals) go into
///   [`AlgorithmState::client_tables`] by name, sorted by client id so the
///   serialised form is deterministic;
/// * scalar counters and budget records that are not model-shaped (the DP
///   accountant's spent Rényi budget, `UploadStats` totals) go into
///   [`AlgorithmState::records`] by name as `u64` words: counters as
///   themselves, `f64` values as their [`f64::to_bits`] pattern, so both
///   restore bit for bit.
///
/// Models are [`ParamBlock`]s: snapshotting FedCross's middleware list is `K`
/// reference-count bumps, not an `O(K·d)` clone storm, and restoring hands
/// the blocks back by reference bump too (copy-on-write duplicates a buffer
/// only when the first post-restore round fuses into it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlgorithmState {
    /// Primary model list (see the type-level docs for the layout contract).
    pub models: Vec<ParamBlock>,
    /// Named model-shaped auxiliary vectors.
    pub aux: Vec<(String, Vec<f32>)>,
    /// Named per-client vector tables, each sorted by client id.
    pub client_tables: Vec<(String, ClientTable)>,
    /// Named scalar records: counters, and `f64` accumulators stored as
    /// their [`f64::to_bits`] pattern.
    pub records: Vec<(String, Vec<u64>)>,
}

impl AlgorithmState {
    /// State of a single-model method: just the global model.
    pub fn single_model(global: ParamBlock) -> Self {
        Self {
            models: vec![global],
            ..Self::default()
        }
    }

    /// State of a multi-model method: the model list in slot order.
    pub fn multi_model(models: Vec<ParamBlock>) -> Self {
        Self {
            models,
            ..Self::default()
        }
    }

    /// Adds a named auxiliary vector (builder style).
    pub fn with_aux(mut self, name: impl Into<String>, vector: Vec<f32>) -> Self {
        self.aux.push((name.into(), vector));
        self
    }

    /// Adds a named per-client table (builder style), sorting it by client id
    /// so the serialised form is deterministic regardless of the source
    /// container's iteration order.
    pub fn with_client_table(mut self, name: impl Into<String>, mut table: ClientTable) -> Self {
        table.sort_by_key(|(client, _)| *client);
        self.client_tables.push((name.into(), table));
        self
    }

    /// Adds a named record (builder style); store an `f64` as its
    /// [`f64::to_bits`] pattern.
    pub fn with_record(mut self, name: impl Into<String>, values: Vec<u64>) -> Self {
        self.records.push((name.into(), values));
        self
    }

    /// Number of scalar parameters per model, or 0 when no model is stored.
    pub fn param_count(&self) -> usize {
        self.models.first().map_or(0, ParamBlock::len)
    }

    /// The single model of a single-model method, validated against the
    /// expected parameter count.
    pub fn expect_single_model(&self, dim: usize) -> Result<&ParamBlock, StateError> {
        match self.models.as_slice() {
            [model] if model.len() == dim => Ok(model),
            [model] => Err(StateError::new(format!(
                "model has {} parameters, expected {dim}",
                model.len()
            ))),
            models => Err(StateError::new(format!(
                "expected exactly one model, found {}",
                models.len()
            ))),
        }
    }

    /// The model list of a multi-model method, validated against the expected
    /// model count (FedCross's `K`) and per-model parameter count.
    pub fn expect_models(&self, count: usize, dim: usize) -> Result<&[ParamBlock], StateError> {
        if self.models.len() != count {
            return Err(StateError::new(format!(
                "middleware count mismatch: checkpoint has {} models, the resuming algorithm has {count}",
                self.models.len()
            )));
        }
        for (slot, model) in self.models.iter().enumerate() {
            if model.len() != dim {
                return Err(StateError::new(format!(
                    "model {slot} has {} parameters, expected {dim}",
                    model.len()
                )));
            }
        }
        Ok(&self.models)
    }

    /// A named auxiliary vector, validated against the expected length.
    pub fn expect_aux(&self, name: &str, dim: usize) -> Result<&[f32], StateError> {
        let (_, vector) = self
            .aux
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| StateError::new(format!("missing auxiliary vector `{name}`")))?;
        if vector.len() != dim {
            return Err(StateError::new(format!(
                "auxiliary vector `{name}` has {} entries, expected {dim}",
                vector.len()
            )));
        }
        Ok(vector)
    }

    /// A named per-client table, validating every entry's vector length, that
    /// every client id lies below `num_clients`, and that the ids are
    /// strictly increasing (the on-disk format contract — also rules out
    /// duplicate entries, which would otherwise restore last-entry-wins).
    pub fn expect_client_table(
        &self,
        name: &str,
        num_clients: usize,
        dim: usize,
    ) -> Result<&[(usize, Vec<f32>)], StateError> {
        let (_, table) = self
            .client_tables
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| StateError::new(format!("missing client table `{name}`")))?;
        if let Some(pair) = table.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
            return Err(StateError::new(format!(
                "client table `{name}` is not strictly sorted by client id ({} then {})",
                pair[0].0, pair[1].0
            )));
        }
        for (client, vector) in table {
            if *client >= num_clients {
                return Err(StateError::new(format!(
                    "client table `{name}` references client {client}, federation has {num_clients}"
                )));
            }
            if vector.len() != dim {
                return Err(StateError::new(format!(
                    "client table `{name}` entry for client {client} has {} entries, expected {dim}",
                    vector.len()
                )));
            }
        }
        Ok(table)
    }

    /// A named record, or `None` when absent. Use for records that an
    /// algorithm only writes once the state exists (e.g. a checkpoint taken
    /// before the first round has no accountant yet).
    pub fn record(&self, name: &str) -> Option<&[u64]> {
        self.records
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, values)| values.as_slice())
    }

    /// A named record, validated against the expected entry count.
    pub fn expect_record(&self, name: &str, len: usize) -> Result<&[u64], StateError> {
        let values = self
            .record(name)
            .ok_or_else(|| StateError::new(format!("missing record `{name}`")))?;
        if values.len() != len {
            return Err(StateError::new(format!(
                "record `{name}` has {} entries, expected {len}",
                values.len()
            )));
        }
        Ok(values)
    }
}

/// A resumable snapshot of a federated training run (format
/// [`CHECKPOINT_VERSION`]).
///
/// Build one with [`Simulation::checkpoint`](crate::engine::Simulation::checkpoint)
/// after a partial run, persist it with [`Checkpoint::save`], and hand it to
/// [`Simulation::resume`](crate::engine::Simulation::resume) after a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Checkpoint format version ([`CHECKPOINT_VERSION`] when written by this
    /// build); checked on resume.
    pub version: u32,
    /// Name of the algorithm that produced the snapshot; must match the
    /// resuming algorithm exactly (the name encodes the hyper-parameters).
    pub algorithm: String,
    /// Number of communication rounds completed — the **absolute** round the
    /// resumed run continues from.
    pub rounds_completed: usize,
    /// Master seed of the simulation that produced the snapshot.
    pub seed: u64,
    /// Fingerprint of the simulation configuration (seed, per-round schedule,
    /// local training hyper-parameters, availability model, template size);
    /// see `Simulation::config_fingerprint`. A resume against a different
    /// configuration cannot be bitwise faithful and is rejected.
    pub config_fingerprint: String,
    /// The algorithm's complete training state.
    pub state: AlgorithmState,
    /// Learning curve recorded so far (absolute round indices).
    pub history: TrainingHistory,
    /// Communication counters accumulated so far.
    pub comm: CommTracker,
}

impl Checkpoint {
    /// Assembles a [`CHECKPOINT_VERSION`] checkpoint from its parts. Most
    /// callers should
    /// use [`Simulation::checkpoint`](crate::engine::Simulation::checkpoint),
    /// which fills in the seed and configuration fingerprint.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        algorithm: impl Into<String>,
        rounds_completed: usize,
        seed: u64,
        config_fingerprint: impl Into<String>,
        state: AlgorithmState,
        history: TrainingHistory,
        comm: CommTracker,
    ) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            algorithm: algorithm.into(),
            rounds_completed,
            seed,
            config_fingerprint: config_fingerprint.into(),
            state,
            history,
            comm,
        }
    }

    /// Number of scalar parameters of the checkpointed model(s).
    pub fn param_count(&self) -> usize {
        self.state.param_count()
    }

    /// Locates the first non-finite scalar in the checkpoint, if any.
    ///
    /// A NaN or infinity in the training state means the run diverged.
    /// Saving it would atomically replace the last good checkpoint — the one
    /// an operator needs to roll back to — with state no resumed run can
    /// recover from, so [`Checkpoint::save`] refuses such state up front.
    fn first_non_finite(&self) -> Option<String> {
        let scan = |values: &[f32]| values.iter().position(|v| !v.is_finite());
        for (slot, model) in self.state.models.iter().enumerate() {
            if let Some(i) = scan(model) {
                return Some(format!("model {slot}, parameter {i}"));
            }
        }
        for (name, vector) in &self.state.aux {
            if let Some(i) = scan(vector) {
                return Some(format!("auxiliary vector `{name}`, entry {i}"));
            }
        }
        for (name, table) in &self.state.client_tables {
            for (client, vector) in table {
                if let Some(i) = scan(vector) {
                    return Some(format!("client table `{name}`, client {client}, entry {i}"));
                }
            }
        }
        for record in self.history.records() {
            if ![record.accuracy, record.test_loss, record.train_loss]
                .iter()
                .all(|v| v.is_finite())
            {
                return Some(format!("history record for round {}", record.round));
            }
        }
        None
    }

    /// Writes the checkpoint to `path` **atomically** in the binary format
    /// of [`CHECKPOINT_VERSION`], creating parent directories as needed.
    ///
    /// The sections stream through a buffered writer into a sibling
    /// temporary file (`<name>.tmp`), which is flushed to disk and renamed
    /// over `path`; the directory is synced after the rename. A crash at any
    /// point leaves either the previous checkpoint or the new one — never a
    /// truncated or interleaved file. (Concurrent saves to the same path are
    /// not supported; the temp name is deterministic.)
    ///
    /// # Errors
    /// Fails with [`io::ErrorKind::InvalidData`] — without touching the
    /// filesystem — when the checkpoint contains a non-finite scalar (see
    /// [`Checkpoint::first_non_finite`]'s rationale): a diverged run must not
    /// overwrite its last good checkpoint.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        if let Some(what) = self.first_non_finite() {
            return Err(invalid(format!(
                "refusing to save checkpoint: non-finite value in {what} (diverged training?)"
            )));
        }
        let path = path.as_ref();
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        if let Some(dir) = dir {
            fs::create_dir_all(dir)?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let write_result = (|| {
            let mut out = BufWriter::with_capacity(1 << 20, File::create(&tmp)?);
            self.write_frame(&mut out)?;
            let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            // Flush to stable storage before the rename makes it visible, so
            // the renamed file can never be seen partially written.
            file.sync_all()
        })();
        if let Err(err) = write_result {
            let _ = fs::remove_file(&tmp);
            return Err(err);
        }
        if let Err(err) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(err);
        }
        // Persist the rename itself.
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    }

    /// Writes the preamble, a placeholder section table, every section, and
    /// then the real table once the sections' lengths and checksums are
    /// known.
    fn write_frame<W: Write + Seek>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(&MAGIC)?;
        out.write_all(&self.version.to_le_bytes())?;
        out.write_all(&(SECTIONS.len() as u32).to_le_bytes())?;
        out.write_all(&[0u8; SECTIONS.len() * TABLE_ENTRY_BYTES as usize])?;

        let mut table = Vec::with_capacity(SECTIONS.len());
        let mut s = SectionWriter::new(out);
        s.put_str(&self.algorithm)?;
        s.put_len(self.rounds_completed)?;
        s.put_u64(self.seed)?;
        s.put_str(&self.config_fingerprint)?;
        table.push(s.into_table_entry());

        let state = &self.state;
        let mut s = SectionWriter::new(out);
        s.put_len(state.models.len())?;
        for model in &state.models {
            s.put_f32s(model)?;
        }
        table.push(s.into_table_entry());

        let mut s = SectionWriter::new(out);
        s.put_len(state.aux.len())?;
        for (name, vector) in &state.aux {
            s.put_str(name)?;
            s.put_f32s(vector)?;
        }
        table.push(s.into_table_entry());

        let mut s = SectionWriter::new(out);
        s.put_len(state.client_tables.len())?;
        for (name, table) in &state.client_tables {
            s.put_str(name)?;
            s.put_len(table.len())?;
            for (client, vector) in table {
                s.put_len(*client)?;
                s.put_f32s(vector)?;
            }
        }
        table.push(s.into_table_entry());

        let mut s = SectionWriter::new(out);
        s.put_len(state.records.len())?;
        for (name, values) in &state.records {
            s.put_str(name)?;
            s.put_len(values.len())?;
            for value in values {
                s.put_u64(*value)?;
            }
        }
        table.push(s.into_table_entry());

        let mut s = SectionWriter::new(out);
        s.put_len(self.history.len())?;
        for record in self.history.records() {
            s.put_len(record.round)?;
            for value in [record.accuracy, record.test_loss, record.train_loss] {
                s.put_bytes(&value.to_bits().to_le_bytes())?;
            }
        }
        table.push(s.into_table_entry());

        let mut s = SectionWriter::new(out);
        let comm = &self.comm;
        for counter in [
            comm.model_download,
            comm.model_upload,
            comm.extra_download,
            comm.extra_upload,
            comm.rounds,
            comm.client_contacts,
        ] {
            s.put_u64(counter)?;
        }
        table.push(s.into_table_entry());

        out.seek(SeekFrom::Start(PREAMBLE_BYTES))?;
        for (tag, (len, checksum)) in (1u64..).zip(table) {
            for word in [tag, len, checksum] {
                out.write_all(&word.to_le_bytes())?;
            }
        }
        out.flush()
    }

    /// Loads a checkpoint previously written by [`Checkpoint::save`].
    ///
    /// # Errors
    /// Fails with [`io::ErrorKind::InvalidData`] — never a panic, and before
    /// allocating for any length the file cannot hold — on a bad magic, an
    /// unsupported version (including the JSON checkpoints of versions 1–3),
    /// a truncated or over-long file, a section table out of order, a
    /// checksum mismatch, or a malformed field.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        Self::read_frame(&mut BufReader::with_capacity(1 << 20, file), file_len)
    }

    /// Parses a checkpoint of `file_len` bytes from `input`.
    fn read_frame<R: Read>(input: &mut R, file_len: u64) -> io::Result<Self> {
        let mut preamble = Vec::with_capacity(PREAMBLE_BYTES as usize);
        input
            .by_ref()
            .take(PREAMBLE_BYTES)
            .read_to_end(&mut preamble)?;
        if !preamble.starts_with(&MAGIC) {
            if preamble.trim_ascii_start().starts_with(b"{") {
                input.by_ref().take(4096).read_to_end(&mut preamble)?;
                let version = json_version(&preamble)
                    .map_or_else(|| "unknown".to_string(), |v| v.to_string());
                return Err(invalid(format!(
                    "JSON checkpoint (format version {version}) is no longer readable; \
                     this build reads binary format version {CHECKPOINT_VERSION}"
                )));
            }
            return Err(invalid("not a checkpoint file (bad magic)"));
        }
        if preamble.len() < PREAMBLE_BYTES as usize {
            return Err(invalid("file truncated in the preamble"));
        }
        let word = |at: usize| {
            u32::from_le_bytes([
                preamble[at],
                preamble[at + 1],
                preamble[at + 2],
                preamble[at + 3],
            ])
        };
        let (version, sections) = (word(8), word(12));
        if version != CHECKPOINT_VERSION {
            return Err(invalid(format!(
                "unsupported checkpoint version {version}; this build reads version {CHECKPOINT_VERSION}"
            )));
        }
        if sections as usize != SECTIONS.len() {
            return Err(invalid(format!(
                "checkpoint declares {sections} sections, expected {}",
                SECTIONS.len()
            )));
        }

        let table_bytes = SECTIONS.len() as u64 * TABLE_ENTRY_BYTES;
        let body_bytes = file_len
            .checked_sub(PREAMBLE_BYTES + table_bytes)
            .ok_or_else(|| invalid("file truncated in the section table"))?;
        let mut table = [(0u64, 0u64); SECTIONS.len()];
        let mut declared = 0u64;
        for (index, entry) in table.iter_mut().enumerate() {
            let mut words = [0u64; 3];
            for word in &mut words {
                let mut bytes = [0u8; 8];
                read_full(input, &mut bytes, "section table")?;
                *word = u64::from_le_bytes(bytes);
            }
            let [tag, len, checksum] = words;
            if tag != index as u64 + 1 {
                return Err(invalid(format!(
                    "bad section order: entry {index} has tag {tag}, expected {} (`{}`)",
                    index + 1,
                    SECTIONS[index]
                )));
            }
            declared = declared
                .checked_add(len)
                .ok_or_else(|| invalid("section lengths overflow"))?;
            *entry = (len, checksum);
        }
        if declared != body_bytes {
            return Err(invalid(format!(
                "sections declare {declared} bytes but the file holds {body_bytes} after the table{}",
                if declared > body_bytes { " (truncated)" } else { "" }
            )));
        }

        let mut s = SectionReader::new(input, SECTIONS[0], table[0]);
        let algorithm = s.take_str()?;
        let rounds_completed = s.take_usize()?;
        let seed = s.take_u64()?;
        let config_fingerprint = s.take_str()?;
        s.end_section()?;

        let mut s = SectionReader::new(input, SECTIONS[1], table[1]);
        let models = (0..s.take_len(8)?)
            .map(|_| s.take_f32s().map(ParamBlock::new))
            .collect::<io::Result<_>>()?;
        s.end_section()?;

        let mut s = SectionReader::new(input, SECTIONS[2], table[2]);
        let aux = (0..s.take_len(16)?)
            .map(|_| Ok((s.take_str()?, s.take_f32s()?)))
            .collect::<io::Result<_>>()?;
        s.end_section()?;

        let mut s = SectionReader::new(input, SECTIONS[3], table[3]);
        let client_tables = (0..s.take_len(16)?)
            .map(|_| {
                let name = s.take_str()?;
                let entries = (0..s.take_len(16)?)
                    .map(|_| Ok((s.take_usize()?, s.take_f32s()?)))
                    .collect::<io::Result<_>>()?;
                Ok((name, entries))
            })
            .collect::<io::Result<_>>()?;
        s.end_section()?;

        let mut s = SectionReader::new(input, SECTIONS[4], table[4]);
        let records = (0..s.take_len(16)?)
            .map(|_| {
                let name = s.take_str()?;
                let values = (0..s.take_len(8)?)
                    .map(|_| s.take_u64())
                    .collect::<io::Result<_>>()?;
                Ok((name, values))
            })
            .collect::<io::Result<_>>()?;
        s.end_section()?;

        let mut s = SectionReader::new(input, SECTIONS[5], table[5]);
        let mut history = TrainingHistory::new();
        for _ in 0..s.take_len(20)? {
            let round = s.take_usize()?;
            let mut float = || s.take_u32().map(f32::from_bits);
            history.push(RoundRecord {
                round,
                accuracy: float()?,
                test_loss: float()?,
                train_loss: float()?,
            });
        }
        s.end_section()?;

        let mut s = SectionReader::new(input, SECTIONS[6], table[6]);
        let comm = CommTracker {
            model_download: s.take_u64()?,
            model_upload: s.take_u64()?,
            extra_download: s.take_u64()?,
            extra_upload: s.take_u64()?,
            rounds: s.take_u64()?,
            client_contacts: s.take_u64()?,
        };
        s.end_section()?;

        Ok(Self {
            version,
            algorithm,
            rounds_completed,
            seed,
            config_fingerprint,
            state: AlgorithmState {
                models,
                aux,
                client_tables,
                records,
            },
            history,
            comm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundRecord;
    use proptest::prelude::*;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn sample_history() -> TrainingHistory {
        let mut history = TrainingHistory::new();
        history.push(RoundRecord {
            round: 0,
            accuracy: 0.2,
            test_loss: 2.1,
            train_loss: 2.3,
        });
        history.push(RoundRecord {
            round: 5,
            accuracy: 0.5,
            test_loss: 1.4,
            train_loss: 1.2,
        });
        history
    }

    fn sample_comm() -> CommTracker {
        let mut comm = CommTracker::new();
        comm.record_model_roundtrip(3);
        comm.record_extra_download(7);
        comm.end_round();
        comm
    }

    fn checkpoint_with_state(state: AlgorithmState) -> Checkpoint {
        Checkpoint::new(
            "test-algo",
            6,
            42,
            "fnv1a:0123456789abcdef",
            state,
            sample_history(),
            sample_comm(),
        )
    }

    /// A checkpoint whose seven sections are all non-empty and pairwise
    /// different, so swapping any two of them changes the file.
    fn rich_checkpoint() -> Checkpoint {
        let state = AlgorithmState::multi_model(vec![
            ParamBlock::from(vec![1.0f32, -2.0, 3.5]),
            ParamBlock::from(vec![0.25f32, 8.0, -0.0]),
        ])
        .with_aux("server_control", vec![0.5, -0.5, 1e-3])
        .with_client_table(
            "controls",
            vec![(4, vec![1.0, 1.0, 2.0]), (1, vec![2.0, 2.0, 3.0])],
        )
        .with_record("counters", vec![u64::MAX, 7, 0.125f64.to_bits()]);
        checkpoint_with_state(state)
    }

    /// A fresh per-test directory under the system temp dir.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fedcross-checkpoint-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn encoded(checkpoint: &Checkpoint) -> Vec<u8> {
        let mut out = Cursor::new(Vec::new());
        checkpoint
            .write_frame(&mut out)
            .expect("in-memory encode succeeds");
        out.into_inner()
    }

    fn decoded(bytes: &[u8]) -> io::Result<Checkpoint> {
        Checkpoint::read_frame(&mut &bytes[..], bytes.len() as u64)
    }

    /// `(start, length)` of every section body, read from the section table.
    fn section_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let mut start = (PREAMBLE_BYTES + SECTIONS.len() as u64 * TABLE_ENTRY_BYTES) as usize;
        (0..SECTIONS.len())
            .map(|i| {
                let len = word(PREAMBLE_BYTES as usize + i * TABLE_ENTRY_BYTES as usize + 8);
                start += len;
                (start - len, len)
            })
            .collect()
    }

    /// Recomputes section `index`'s checksum in the table, so a crafted edit
    /// is caught by the field checks rather than by the checksum.
    fn reseal(bytes: &mut [u8], index: usize) {
        let (start, len) = section_spans(bytes)[index];
        let mut hash = Fnv::new();
        hash.absorb(&bytes[start..start + len]);
        let at = PREAMBLE_BYTES as usize + index * TABLE_ENTRY_BYTES as usize + 16;
        bytes[at..at + 8].copy_from_slice(&hash.digest().to_le_bytes());
    }

    fn assert_invalid(result: io::Result<Checkpoint>, what: &str) -> io::Error {
        let err = result.expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        err
    }

    #[test]
    fn single_model_checkpoint_round_trips() {
        let state = AlgorithmState::single_model(ParamBlock::from(vec![0.5f32, -1.0, 2.0]));
        let checkpoint = checkpoint_with_state(state);
        let dir = temp_dir("single");
        let path = dir.join("ckpt");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored, checkpoint);
        assert_eq!(restored.version, CHECKPOINT_VERSION);
        assert_eq!(restored.param_count(), 3);
        assert_eq!(restored.history.len(), 2);
        assert_eq!(restored.comm, sample_comm());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn multi_model_state_preserves_slot_order_and_aux_tables() {
        let models = vec![
            ParamBlock::from(vec![1.0f32, 2.0]),
            ParamBlock::from(vec![3.0f32, 4.0]),
            ParamBlock::from(vec![5.0f32, 6.0]),
        ];
        let state = AlgorithmState::multi_model(models.clone())
            .with_aux("server_control", vec![0.5, -0.5])
            .with_client_table("controls", vec![(4, vec![1.0, 1.0]), (1, vec![2.0, 2.0])]);
        let checkpoint = checkpoint_with_state(state);
        let dir = temp_dir("multi");
        let path = dir.join("ckpt");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored.state.models, models);
        assert_eq!(
            restored.state.expect_aux("server_control", 2).unwrap(),
            &[0.5, -0.5]
        );
        // Builder sorted the table by client id.
        let table = restored
            .state
            .expect_client_table("controls", 8, 2)
            .unwrap();
        assert_eq!(table[0].0, 1);
        assert_eq!(table[1].0, 4);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn round_trip_is_bitwise_exact_for_awkward_floats() {
        // Values with no short decimal representation, negative zero and
        // subnormals must round-trip to the exact same f32 bits — the resume
        // plane's core requirement.
        let awkward: Vec<f32> = vec![
            1.0 / 3.0,
            f32::MIN_POSITIVE,
            -0.123_456_79,
            1e-38,
            3.402_823e38,
            -0.0,
            f32::from_bits(1),
        ];
        let state = AlgorithmState::single_model(ParamBlock::from(awkward.clone()))
            .with_aux("aux", awkward.clone())
            .with_client_table("table", vec![(2, awkward.clone())]);
        let checkpoint = checkpoint_with_state(state);
        let dir = temp_dir("bitwise");
        let path = dir.join("ckpt");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&restored.state.models[0]), bits(&awkward));
        assert_eq!(bits(&restored.state.aux[0].1), bits(&awkward));
        assert_eq!(
            bits(&restored.state.client_tables[0].1[0].1),
            bits(&awkward)
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn state_validation_rejects_mismatches() {
        let state = AlgorithmState::multi_model(vec![
            ParamBlock::from(vec![1.0f32, 2.0]),
            ParamBlock::from(vec![3.0f32, 4.0]),
        ])
        .with_aux("teacher", vec![0.0, 0.0])
        .with_client_table("updates", vec![(3, vec![1.0, 1.0])]);

        assert!(
            state.expect_single_model(2).is_err(),
            "two models are not one"
        );
        assert!(state.expect_models(3, 2).is_err(), "K mismatch must fail");
        assert!(state.expect_models(2, 5).is_err(), "dim mismatch must fail");
        assert!(state.expect_models(2, 2).is_ok());
        assert!(state.expect_aux("teacher", 3).is_err());
        assert!(state.expect_aux("missing", 2).is_err());
        assert!(
            state.expect_client_table("updates", 2, 2).is_err(),
            "client 3 of 2"
        );
        assert!(
            state.expect_client_table("updates", 8, 3).is_err(),
            "dim mismatch"
        );
        assert!(state.expect_client_table("updates", 8, 2).is_ok());

        let single = AlgorithmState::single_model(ParamBlock::from(vec![1.0f32, 2.0]));
        assert!(single.expect_single_model(2).is_ok());
        assert!(single.expect_single_model(3).is_err());
    }

    #[test]
    fn u64_fields_round_trip_beyond_2_pow_53() {
        // The seed and the communication counters are full u64 words;
        // values above 2^53 (where f64 loses integer precision) must
        // round-trip exactly.
        let comm = CommTracker {
            model_download: (1u64 << 60) + 1,
            model_upload: u64::MAX,
            extra_download: 3,
            extra_upload: 4,
            rounds: 5,
            client_contacts: (1u64 << 53) + 1,
        };
        let checkpoint = Checkpoint::new(
            "test-algo",
            1,
            u64::MAX - 2,
            "fnv1a:0123456789abcdef",
            AlgorithmState::single_model(ParamBlock::from(vec![0.0f32])),
            TrainingHistory::new(),
            comm.clone(),
        );
        let dir = temp_dir("u64");
        let path = dir.join("ckpt");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored.seed, u64::MAX - 2);
        assert_eq!(restored.comm, comm);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn records_round_trip_losslessly_and_validate() {
        // u64 beyond 2^53 and f64 bit patterns with no exact decimal
        // rendering must survive the round trip bit for bit — this is what
        // the DP accountant's spent budget and the upload counters rely on.
        let spent = [1.0f64 / 3.0, f64::MIN_POSITIVE, -0.0, 2.5e-300];
        let state = AlgorithmState::single_model(ParamBlock::from(vec![0.0f32]))
            .with_record("counters", vec![u64::MAX, 0])
            .with_record("budget", spent.iter().map(|v| v.to_bits()).collect());
        let checkpoint = checkpoint_with_state(state);
        let dir = temp_dir("records");
        let path = dir.join("ckpt");
        checkpoint.save(&path).expect("save succeeds");
        let restored = Checkpoint::load(&path).expect("load succeeds");
        assert_eq!(restored, checkpoint);

        assert_eq!(
            restored.state.expect_record("counters", 2).unwrap(),
            &[u64::MAX, 0]
        );
        let budget = restored.state.expect_record("budget", 4).unwrap();
        for (bits, original) in budget.iter().zip(spent) {
            assert_eq!(f64::from_bits(*bits).to_bits(), original.to_bits());
        }

        // Validation: wrong length, missing name.
        assert!(restored.state.expect_record("counters", 3).is_err());
        assert!(restored.state.expect_record("missing", 1).is_err());
        assert!(restored.state.record("missing").is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_client_table_with_duplicate_or_unsorted_ids_is_rejected() {
        // A corrupt checkpoint with two entries for one client would
        // otherwise restore last-entry-wins — silently partial.
        let duplicated = AlgorithmState {
            client_tables: vec![("controls".to_string(), vec![(3, vec![1.0]), (3, vec![2.0])])],
            ..Default::default()
        };
        let err = duplicated
            .expect_client_table("controls", 8, 1)
            .expect_err("duplicate ids must fail");
        assert!(err.to_string().contains("strictly sorted"), "{err}");

        let unsorted = AlgorithmState {
            client_tables: vec![("controls".to_string(), vec![(5, vec![1.0]), (2, vec![2.0])])],
            ..Default::default()
        };
        assert!(unsorted.expect_client_table("controls", 8, 1).is_err());
    }

    #[test]
    fn save_is_atomic_a_failed_write_never_touches_the_existing_checkpoint() {
        let dir = temp_dir("atomic");
        let path = dir.join("ckpt");
        let first = checkpoint_with_state(AlgorithmState::single_model(ParamBlock::from(vec![
            1.0f32, 2.0,
        ])));
        first.save(&path).expect("initial save succeeds");

        // Simulate a crash mid-save: make the temp-file write fail by
        // occupying the (deterministic) temp path with a directory. The
        // existing checkpoint must survive untouched.
        let tmp = dir.join("ckpt.tmp");
        fs::create_dir_all(&tmp).unwrap();
        let second = checkpoint_with_state(AlgorithmState::single_model(ParamBlock::from(vec![
            9.0f32, 9.0,
        ])));
        assert!(second.save(&path).is_err(), "blocked temp write must error");
        let survivor = Checkpoint::load(&path).expect("original checkpoint still loads");
        assert_eq!(survivor, first, "failed save corrupted the original");

        // With the obstruction gone the save goes through and cleans up.
        fs::remove_dir_all(&tmp).unwrap();
        second.save(&path).expect("save succeeds");
        assert_eq!(Checkpoint::load(&path).unwrap(), second);
        assert!(!tmp.exists(), "temp file must not be left behind");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_non_finite_checkpoint_is_refused_and_the_previous_one_survives() {
        // Saving a diverged state must fail up front instead of atomically
        // replacing the last good checkpoint.
        let dir = temp_dir("nonfinite");
        let path = dir.join("ckpt");
        let good = checkpoint_with_state(AlgorithmState::single_model(ParamBlock::from(vec![
            1.0f32, 2.0,
        ])));
        good.save(&path).expect("finite checkpoint saves");

        let diverged = checkpoint_with_state(
            AlgorithmState::single_model(ParamBlock::from(vec![1.0f32, f32::NAN]))
                .with_aux("aux", vec![0.0]),
        );
        let err = diverged.save(&path).expect_err("NaN state must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("model 0, parameter 1"), "{err}");
        assert_eq!(
            Checkpoint::load(&path).unwrap(),
            good,
            "previous checkpoint lost"
        );

        let bad_aux = checkpoint_with_state(
            AlgorithmState::single_model(ParamBlock::from(vec![1.0f32]))
                .with_aux("teacher", vec![f32::INFINITY]),
        );
        let err = bad_aux.save(&path).expect_err("inf aux must be refused");
        assert!(
            err.to_string().contains("auxiliary vector `teacher`"),
            "{err}"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn loading_a_missing_file_is_an_error() {
        let missing = std::env::temp_dir().join("fedcross-checkpoint-does-not-exist");
        assert!(Checkpoint::load(missing).is_err());
    }

    #[test]
    fn loading_corrupt_json_is_an_invalid_data_error() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt");
        fs::write(&path, "not json at all").unwrap();
        assert_invalid(Checkpoint::load(&path), "a text file must fail");
        fs::write(&path, "").unwrap();
        assert_invalid(Checkpoint::load(&path), "an empty file must fail");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn loading_a_version_1_checkpoint_fails_loudly() {
        // The pre-resume-plane format had no version/state/comm fields; it
        // must be rejected as unreadable, not half-restored.
        let dir = temp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt");
        fs::write(
            &path,
            r#"{"algorithm":"fedavg","rounds_completed":6,"global_params":[0.5],"middleware":null,"history":{"records":[]}}"#,
        )
        .unwrap();
        let err = assert_invalid(Checkpoint::load(&path), "v1 checkpoint must fail");
        assert!(err.to_string().contains("JSON checkpoint"), "{err}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_version_3_json_checkpoint_is_rejected_with_its_version() {
        let v3 = "\n{\n  \"version\": 3,\n  \"algorithm\": \"fedavg\",\n  \"rounds_completed\": 6,\n  \"seed\": \"42\"\n}";
        let err = assert_invalid(decoded(v3.as_bytes()), "v3 JSON must fail");
        assert!(err.to_string().contains("format version 3"), "{err}");
    }

    #[test]
    fn the_file_is_a_frame_of_checksummed_sections() {
        let bytes = encoded(&rich_checkpoint());
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(bytes[8..12], CHECKPOINT_VERSION.to_le_bytes());
        let spans = section_spans(&bytes);
        let (last_start, last_len) = spans[SECTIONS.len() - 1];
        assert_eq!(last_start + last_len, bytes.len(), "sections tile the file");
        assert_eq!(spans[SECTIONS.len() - 1].1, 6 * 8, "six comm counters");
        // Two models of three floats: a count, then two length-prefixed
        // payloads of raw f32 bits.
        assert_eq!(spans[1].1, 8 + 2 * (8 + 3 * 4));
        assert_eq!(decoded(&bytes).expect("decodes"), rich_checkpoint());
    }

    #[test]
    fn truncation_at_every_section_boundary_is_invalid_data() {
        let bytes = encoded(&rich_checkpoint());
        let table_end = (PREAMBLE_BYTES + SECTIONS.len() as u64 * TABLE_ENTRY_BYTES) as usize;
        let mut cuts = vec![0, 4, 8, 12, PREAMBLE_BYTES as usize, table_end];
        for (start, len) in section_spans(&bytes) {
            cuts.extend([start, start + len / 2]);
        }
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            assert_invalid(decoded(&bytes[..cut]), &format!("cut at byte {cut}"));
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_invalid(decoded(&longer), "a trailing byte");
    }

    #[test]
    fn a_model_length_of_2_pow_60_is_rejected_before_allocating() {
        // Each crafted file carries a valid checksum, so only the length
        // checks stand between the field and a 2^62-byte allocation.
        let bytes = encoded(&rich_checkpoint());
        let models = section_spans(&bytes)[1].0;
        for (at, value, what) in [
            (models + 8, 1u64 << 60, "model length 2^60"),
            (models + 8, u64::MAX, "model length u64::MAX"),
            (models, 1u64 << 60, "model count 2^60"),
        ] {
            let mut crafted = bytes.clone();
            crafted[at..at + 8].copy_from_slice(&value.to_le_bytes());
            reseal(&mut crafted, 1);
            let err = assert_invalid(decoded(&crafted), what);
            assert!(err.to_string().contains("exceeds"), "{what}: {err}");
        }
        // Section lengths whose sum overflows u64.
        let mut crafted = bytes.clone();
        for index in [0, 1] {
            let at = PREAMBLE_BYTES as usize + index * TABLE_ENTRY_BYTES as usize + 8;
            crafted[at..at + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        }
        let err = assert_invalid(decoded(&crafted), "overflowing section lengths");
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn truncation_mid_payload_is_invalid_data(fraction in 0.0f64..1.0) {
            let bytes = encoded(&rich_checkpoint());
            let cut = (fraction * bytes.len() as f64) as usize;
            let err = decoded(&bytes[..cut]).expect_err("a truncated file must fail");
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn a_single_bit_flip_anywhere_is_invalid_data(position in 0.0f64..1.0) {
            let mut bytes = encoded(&rich_checkpoint());
            let bit = (position * (bytes.len() * 8) as f64) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            let err = decoded(&bytes).expect_err("a flipped bit must fail");
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn two_swapped_sections_are_invalid_data(a in 0usize..7, b in 0usize..7) {
            if a == b {
                return Ok(());
            }
            let (a, b) = (a.min(b), a.max(b));
            let bytes = encoded(&rich_checkpoint());
            let spans = section_spans(&bytes);
            let body = |i: usize| &bytes[spans[i].0..spans[i].0 + spans[i].1];
            // The bodies trade places; the table either stays (lengths and
            // checksums now describe the wrong bodies) or its entries trade
            // places too (tags out of order).
            let mut swapped = bytes[..spans[0].0].to_vec();
            for i in 0..SECTIONS.len() {
                swapped.extend_from_slice(body(if i == a { b } else if i == b { a } else { i }));
            }
            let err = decoded(&swapped).expect_err("swapped bodies must fail");
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let entry = |i: usize| {
                let at = PREAMBLE_BYTES as usize + i * TABLE_ENTRY_BYTES as usize;
                at..at + TABLE_ENTRY_BYTES as usize
            };
            let (entry_a, entry_b) = (bytes[entry(a)].to_vec(), bytes[entry(b)].to_vec());
            swapped[entry(a)].copy_from_slice(&entry_b);
            swapped[entry(b)].copy_from_slice(&entry_a);
            let err = decoded(&swapped).expect_err("swapped sections must fail");
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            prop_assert!(err.to_string().contains("section order"), "{}", err);
        }
    }
}
