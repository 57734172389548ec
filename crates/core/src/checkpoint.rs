//! Checkpointing for LazyDP training.
//!
//! LazyDP adds a subtlety that eager DP-SGD does not have: at any point
//! mid-training, the embedding tables are missing their **pending**
//! noise — the model on the heap is *not* the DP-protected model. A
//! correct checkpoint must therefore persist the [`HistoryTable`]s and
//! the iteration counter along with the weights, so that a resumed run
//! continues to owe exactly the same noise. Dropping the history and
//! resuming with a fresh one would double-charge noise (a fresh history
//! says "nothing applied since iteration 0") — corrupting the model and,
//! worse, silently breaking the eager-equivalence guarantee. The tests
//! below demonstrate both the correct round-trip and that failure mode.
//!
//! The format is a simple little-endian binary stream (no external
//! serialization dependency), versioned and magic-tagged. An FNV-1a-64
//! checksum trails the whole payload: any flipped or truncated byte
//! surfaces as a typed `InvalidData` error at load — never a panic,
//! never a silent load of torn state. The version also names the noise
//! stream a checkpoint owes its pending noise from, since resuming on
//! another stream would match neither uninterrupted run: version 3 has
//! version 2's bytes but marks the lane-wise Box–Muller (version 2 owes
//! the old libm stream), and version 4 has version 3's bytes but marks
//! the one-round counter hash (version 3 owes the two-round one). Older
//! versions are refused as unsupported. The config block keeps a `u32`
//! interaction tag so the byte layout stays version 3's; it is always 0
//! (the dot interaction), and any other value is refused. Crash-consistent
//! *placement* of these bytes (temp file + `sync_all` + atomic rename +
//! versioned manifest) lives in [`crate::recovery`].

use crate::history::HistoryTable;
use crate::optimizer::{LazyDpConfig, LazyDpOptimizer};
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable, RowReader};
use lazydp_exec::Executor;
use lazydp_fault::checksum::fnv1a64;
use lazydp_model::{Dlrm, DlrmConfig};
use lazydp_rng::RowNoise;
use lazydp_store::{StorageConfig, StoredTable};
use std::convert::Infallible;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"LAZYDP\x01\x00";
const VERSION: u32 = 4;
/// Bytes before the checksummed payload: magic + version word.
const HEADER_LEN: usize = 12;
/// The FNV-1a-64 payload checksum trailing the stream.
const TRAILER_LEN: usize = 8;

// ---------- primitive IO helpers ----------------------------------------

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f32s<W: Write>(w: &mut W, vs: &[f32]) -> io::Result<()> {
    w_u64(w, vs.len() as u64)?;
    for &v in vs {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}
fn w_u32s<W: Write>(w: &mut W, vs: &[u32]) -> io::Result<()> {
    w_u64(w, vs.len() as u64)?;
    for &v in vs {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}
fn w_u64s<W: Write>(w: &mut W, vs: &[u64]) -> io::Result<()> {
    w_u64(w, vs.len() as u64)?;
    for &v in vs {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn r_len<R: Read>(r: &mut R) -> io::Result<usize> {
    let n = r_u64(r)?;
    usize::try_from(n).map_err(|_| bad("length overflows usize"))
}
fn r_f32s<R: Read>(r: &mut R) -> io::Result<Vec<f32>> {
    let n = r_len(r)?;
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 4];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}
fn r_u32s<R: Read>(r: &mut R) -> io::Result<Vec<u32>> {
    let n = r_len(r)?;
    (0..n).map(|_| r_u32(r)).collect()
}
fn r_u64s<R: Read>(r: &mut R) -> io::Result<Vec<u64>> {
    let n = r_len(r)?;
    (0..n).map(|_| r_u64(r)).collect()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------- checkpoint payload -------------------------------------------

/// Everything a resumed LazyDP run needs (weights + pending-noise
/// bookkeeping). The noise source and hyper-parameters are provided by
/// the caller at restore time (key material does not belong in model
/// checkpoints).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The model configuration (shape metadata).
    pub config: DlrmConfig,
    /// Flat weights: bottom layers, top layers, embedding tables.
    weights: Vec<Vec<f32>>,
    /// Per-table last-noise-applied iterations, in row order.
    history: Vec<Vec<u32>>,
    /// Training iteration at capture time.
    pub iteration: u64,
}

impl Checkpoint {
    /// Captures a checkpoint from a model and its LazyDP optimizer.
    ///
    /// Generic over the embedding backend: each table is streamed **in
    /// global row order** through one [`EmbeddingStorage`] reader,
    /// which on a disk-backed table walks its pages sequentially (each
    /// page faulted once) under one lock. The resulting bytes are identical whichever
    /// backend the run used, so storage-backed and in-memory checkpoints
    /// are interchangeable.
    #[must_use]
    pub fn capture<T: EmbeddingStorage, N: RowNoise>(
        model: &Dlrm<T>,
        opt: &LazyDpOptimizer<N>,
    ) -> Self {
        let mut weights = Vec::new();
        for layer in model.bottom.layers().iter().chain(model.top.layers()) {
            weights.push(layer.weight.as_slice().to_vec());
            weights.push(layer.bias.clone());
        }
        for t in &model.tables {
            let mut flat = Vec::with_capacity(t.elements());
            let mut rows = t.reader();
            for r in 0..t.rows() as u64 {
                flat.extend_from_slice(rows.row(r));
            }
            weights.push(flat);
        }
        Self {
            config: model.config().clone(),
            weights,
            history: opt
                .history_tables()
                .iter()
                .map(|h| h.as_raw().to_vec())
                .collect(),
            iteration: opt.iteration(),
        }
    }

    /// Restores the model and optimizer. `noise` must be the same
    /// source (same seed) as the interrupted run for exact continuation.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shapes are internally inconsistent.
    #[must_use]
    pub fn restore<N: RowNoise>(&self, cfg: LazyDpConfig, noise: N) -> (Dlrm, LazyDpOptimizer<N>) {
        let Ok(restored) = self.restore_with(cfg, noise, |rows, dim| {
            Ok::<_, Infallible>(EmbeddingTable::zeros(rows, dim))
        });
        restored
    }

    /// [`restore`](Self::restore) onto **disk-backed** embedding tables:
    /// the checkpointed rows are streamed page-sequentially into the
    /// storage engine configured by `storage` — no intermediate dense
    /// copy of the tables is ever materialized, so peak memory stays at
    /// the checkpoint payload plus one page cache per table. Because the
    /// on-disk checkpoint format stores rows in global order with no
    /// backend metadata, a run saved on either backend resumes on
    /// either — the round trip is bitwise (see the tests below).
    ///
    /// # Errors
    ///
    /// Propagates spill-file I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shapes are internally inconsistent.
    pub fn restore_stored<N: RowNoise>(
        &self,
        cfg: LazyDpConfig,
        noise: N,
        storage: &StorageConfig,
    ) -> io::Result<(Dlrm<StoredTable>, LazyDpOptimizer<N>)> {
        // Sparse spill files: no RNG draws, no dense staging.
        Ok(self.restore_with(cfg, noise, |rows, dim| {
            StoredTable::zeros(rows, dim, storage)
        })?)
    }

    /// The body of both restores: a skeleton whose tables
    /// `zero_table(rows, dim)` builds, every weight then overwritten
    /// with the checkpoint's tensors, and the optimizer rebuilt from the
    /// checkpointed history. Each table is copied in by one
    /// [`sweep_rows_mut`](EmbeddingStorage::sweep_rows_mut) — on a
    /// disk-backed table a sequential page walk, each page faulted once
    /// and written back on eviction.
    fn restore_with<T: EmbeddingStorage, N: RowNoise, E>(
        &self,
        cfg: LazyDpConfig,
        noise: N,
        mut zero_table: impl FnMut(usize, usize) -> Result<T, E>,
    ) -> Result<(Dlrm<T>, LazyDpOptimizer<N>), E> {
        // The MLPs' seed-0 initialisation is overwritten below too.
        let mut model = Dlrm::try_new_with(
            self.config.clone(),
            &mut lazydp_rng::Xoshiro256PlusPlus::seed_from(0),
            |rows, dim, _| zero_table(rows, dim),
        )?;
        let mut it = self.weights.iter();
        let mut take = || it.next().expect("checkpoint weight tensors");
        for layer in model
            .bottom
            .layers_mut()
            .iter_mut()
            .chain(model.top.layers_mut())
        {
            let w = take();
            assert_eq!(w.len(), layer.weight.len(), "weight shape mismatch");
            layer.weight.as_mut_slice().copy_from_slice(w);
            let b = take();
            assert_eq!(b.len(), layer.bias.len(), "bias shape mismatch");
            layer.bias.copy_from_slice(b);
        }
        let exec = Executor::new(cfg.dp.threads);
        for t in &mut model.tables {
            let w = take();
            assert_eq!(w.len(), t.elements(), "table shape mismatch");
            let dim = t.dim();
            t.sweep_rows_mut(&exec, |first_row, rows| {
                let start = first_row as usize * dim;
                rows.copy_from_slice(&w[start..start + rows.len()]);
            });
        }
        let history = self
            .history
            .iter()
            .map(|h| HistoryTable::from_raw(h.clone()))
            .collect();
        let opt = LazyDpOptimizer::from_state(cfg, noise, history, self.iteration);
        Ok((model, opt))
    }

    /// Serializes to a writer (the version-4 stream: header, payload,
    /// FNV-1a-64 payload checksum trailer).
    ///
    /// # Errors
    ///
    /// Propagates IO errors from `w`.
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// The complete serialized stream as one byte buffer — what
    /// [`crate::recovery::CheckpointStore`] writes atomically.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        // Payload (writes into a Vec cannot fail).
        let w = &mut out;
        let ok = "write to Vec cannot fail";
        // Config.
        w_u64(w, self.config.num_dense as u64).expect(ok);
        w_u64(w, self.config.embedding_dim as u64).expect(ok);
        w_u64(w, self.config.pooling as u64).expect(ok);
        // The interaction tag slot: 0 is the dot interaction, the only one.
        w_u32(w, 0).expect(ok);
        w_u64s(w, &self.config.table_rows).expect(ok);
        w_u64s(
            w,
            &self
                .config
                .bottom_layers
                .iter()
                .map(|&x| x as u64)
                .collect::<Vec<_>>(),
        )
        .expect(ok);
        w_u64s(
            w,
            &self
                .config
                .top_layers
                .iter()
                .map(|&x| x as u64)
                .collect::<Vec<_>>(),
        )
        .expect(ok);
        // Tensors.
        w_u64(w, self.iteration).expect(ok);
        w_u64(w, self.weights.len() as u64).expect(ok);
        for t in &self.weights {
            w_f32s(w, t).expect(ok);
        }
        w_u64(w, self.history.len() as u64).expect(ok);
        for h in &self.history {
            w_u32s(w, h).expect(ok);
        }
        // Trailer: checksum over everything after the header.
        let sum = fnv1a64(&out[HEADER_LEN..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserializes from a reader (reads to end — the stream is
    /// checksum-verified as a whole before any of it is parsed).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on magic/version/checksum mismatch or
    /// malformed payload, and propagates IO errors. Any flipped or
    /// truncated byte of a saved checkpoint lands here as a typed
    /// error — never a panic, never a silent load.
    pub fn load<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Parses a complete serialized stream.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::load`].
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(bad("checkpoint truncated"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(bad("not a LazyDP checkpoint"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(bad("unsupported checkpoint version"));
        }
        // Verify the payload checksum BEFORE parsing: corrupted length
        // fields must never drive allocation or shape decisions.
        let (payload, trailer) =
            bytes[HEADER_LEN..].split_at(bytes.len() - HEADER_LEN - TRAILER_LEN);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(bad("checkpoint payload checksum mismatch"));
        }
        let r = &mut &payload[..];
        let num_dense = r_u64(r)? as usize;
        let embedding_dim = r_u64(r)? as usize;
        let pooling = r_u64(r)? as usize;
        if r_u32(r)? != 0 {
            return Err(bad("unknown interaction kind"));
        }
        let table_rows = r_u64s(r)?;
        let bottom_layers: Vec<usize> = r_u64s(r)?.into_iter().map(|x| x as usize).collect();
        let top_layers: Vec<usize> = r_u64s(r)?.into_iter().map(|x| x as usize).collect();
        let config = DlrmConfig {
            num_dense,
            embedding_dim,
            table_rows,
            pooling,
            bottom_layers,
            top_layers,
        };
        config.validate().map_err(|e| bad(&e))?;
        let iteration = r_u64(r)?;
        let n_tensors = r_len(r)?;
        let weights = (0..n_tensors)
            .map(|_| r_f32s(r))
            .collect::<io::Result<Vec<_>>>()?;
        let n_hist = r_len(r)?;
        let history = (0..n_hist)
            .map(|_| r_u32s(r))
            .collect::<io::Result<Vec<_>>>()?;
        if !r.is_empty() {
            return Err(bad("trailing bytes after checkpoint payload"));
        }
        let ck = Self {
            config,
            weights,
            history,
            iteration,
        };
        ck.validate_shapes()?;
        Ok(ck)
    }

    /// Load-time shape validation: the tensor inventory must be
    /// internally consistent with the config, so a (checksum-valid but
    /// hand-crafted) stream fails here with a typed error instead of
    /// panicking later inside `restore`'s shape asserts.
    ///
    /// The tensors are a weight and a bias per bottom layer, then per
    /// top layer, then one per embedding table. Products saturate: a
    /// crafted width cannot overflow, and a saturated length matches no
    /// tensor that was actually read.
    fn validate_shapes(&self) -> io::Result<()> {
        let cfg = &self.config;
        let tables = cfg.table_rows.len();
        if self.history.len() != tables {
            return Err(bad("history table count mismatch"));
        }
        for (h, &rows) in self.history.iter().zip(&cfg.table_rows) {
            if h.len() != rows as usize {
                return Err(bad("history row count mismatch"));
            }
        }
        let layers = cfg.bottom_layers.len() + cfg.top_layers.len();
        if self.weights.len() != 2 * layers + tables {
            return Err(bad("checkpoint tensor count mismatch"));
        }
        let (mlp_tensors, table_tensors) = self.weights.split_at(2 * layers);
        for (t, &rows) in table_tensors.iter().zip(&cfg.table_rows) {
            if t.len() != (rows as usize).saturating_mul(cfg.embedding_dim) {
                return Err(bad("embedding table tensor shape mismatch"));
            }
        }
        // Each table holds at least one row, so `embedding_dim` (and with
        // it the top MLP's input width) is bounded by a tensor's length.
        let mut tensors = mlp_tensors.chunks_exact(2);
        for (input, widths) in [
            (cfg.num_dense, &cfg.bottom_layers),
            (cfg.top_input_dim(), &cfg.top_layers),
        ] {
            let mut prev = input;
            for (&out, pair) in widths.iter().zip(&mut tensors) {
                if pair[0].len() != prev.saturating_mul(out) || pair[1].len() != out {
                    return Err(bad("MLP tensor shape mismatch"));
                }
                prev = out;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{SyntheticConfig, SyntheticDataset};
    use lazydp_dpsgd::{DpConfig, Optimizer};
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;

    fn setup() -> (Dlrm, SyntheticDataset, LazyDpConfig) {
        let mut rng = Xoshiro256PlusPlus::seed_from(55);
        let model = Dlrm::new(DlrmConfig::tiny(2, 48, 8), &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, 48, 160));
        let cfg = LazyDpConfig::new(DpConfig::new(0.8, 1.0, 0.05, 16), false);
        (model, ds, cfg)
    }

    fn batches(ds: &SyntheticDataset, n: usize) -> Vec<lazydp_data::MiniBatch> {
        (0..n)
            .map(|i| ds.batch_of(&(i * 16..(i + 1) * 16).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything_bitwise() {
        let (mut model, ds, cfg) = setup();
        let mut opt = LazyDpOptimizer::new(cfg.clone(), &model, CounterNoise::new(8));
        let bs = batches(&ds, 4);
        for i in 0..3 {
            opt.step(&mut model, &bs[i], Some(&bs[i + 1]));
        }
        let ck = Checkpoint::capture(&model, &opt);
        let mut buf = Vec::new();
        ck.save(&mut buf).expect("save");
        let ck2 = Checkpoint::load(&mut buf.as_slice()).expect("load");
        let (model2, opt2) = ck2.restore(cfg.clone(), CounterNoise::new(8));
        assert_eq!(model.tables, model2.tables, "tables bitwise equal");
        for (a, b) in model.top.layers().iter().zip(model2.top.layers()) {
            assert_eq!(a.weight, b.weight);
            assert_eq!(a.bias, b.bias);
        }
        assert_eq!(opt2.iteration(), 3);
        for (h1, h2) in opt.history_tables().iter().zip(opt2.history_tables()) {
            assert_eq!(h1, h2, "history preserved");
        }
    }

    #[test]
    fn resumed_run_equals_uninterrupted_run_exactly() {
        let (model0, ds, cfg) = setup();
        let bs = batches(&ds, 9);
        let steps = 8usize;
        // Uninterrupted.
        let mut m_full = model0.clone();
        let mut o_full = LazyDpOptimizer::new(cfg.clone(), &m_full, CounterNoise::new(4));
        for i in 0..steps {
            o_full.step(&mut m_full, &bs[i], Some(&bs[i + 1]));
        }
        o_full.finalize_model(&mut m_full);
        // Interrupted at step 4, checkpointed through bytes, resumed.
        let mut m = model0;
        let mut o = LazyDpOptimizer::new(cfg.clone(), &m, CounterNoise::new(4));
        for i in 0..4 {
            o.step(&mut m, &bs[i], Some(&bs[i + 1]));
        }
        let mut buf = Vec::new();
        Checkpoint::capture(&m, &o).save(&mut buf).expect("save");
        let ck = Checkpoint::load(&mut buf.as_slice()).expect("load");
        let (mut m2, mut o2) = ck.restore(cfg.clone(), CounterNoise::new(4));
        for i in 4..steps {
            o2.step(&mut m2, &bs[i], Some(&bs[i + 1]));
        }
        o2.finalize_model(&mut m2);
        for (a, b) in m_full.tables.iter().zip(m2.tables.iter()) {
            assert!(a.max_abs_diff(b) < 1e-6, "resume must be exact");
        }
    }

    #[test]
    fn dropping_history_corrupts_the_resumed_model() {
        // The failure mode the module docs warn about: resuming with a
        // fresh HistoryTable (all zeros) double-charges noise.
        let (model0, ds, cfg) = setup();
        let bs = batches(&ds, 9);
        let mut m_full = model0.clone();
        let mut o_full = LazyDpOptimizer::new(cfg.clone(), &m_full, CounterNoise::new(4));
        for i in 0..8 {
            o_full.step(&mut m_full, &bs[i], Some(&bs[i + 1]));
        }
        o_full.finalize_model(&mut m_full);

        let mut m = model0;
        let mut o = LazyDpOptimizer::new(cfg.clone(), &m, CounterNoise::new(4));
        for i in 0..4 {
            o.step(&mut m, &bs[i], Some(&bs[i + 1]));
        }
        // "Checkpoint" only the weights; resume with a FRESH optimizer
        // whose history claims nothing has been applied since iter 0 …
        let mut o_bad = LazyDpOptimizer::from_state(
            cfg.clone(),
            CounterNoise::new(4),
            m.tables
                .iter()
                .map(|t| HistoryTable::new(t.rows()))
                .collect(),
            4,
        );
        let mut m_bad = m;
        for i in 4..8 {
            o_bad.step(&mut m_bad, &bs[i], Some(&bs[i + 1]));
        }
        o_bad.finalize_model(&mut m_bad);
        let diff = m_full
            .tables
            .iter()
            .zip(m_bad.tables.iter())
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0f32, f32::max);
        assert!(
            diff > 1e-4,
            "dropping the history must visibly corrupt the model (diff {diff})"
        );
    }

    #[test]
    fn checkpoint_crosses_storage_backends_bitwise_exactly() {
        // The storage-interchangeability contract: a run interrupted on
        // the paged StoredTable backend (undersized cache, so pages
        // were genuinely spilled) checkpoints through bytes and resumes
        // on the in-memory backend — and vice versa — landing exactly
        // where the uninterrupted in-memory run lands.
        let (model0, ds, cfg) = setup();
        let scfg = StorageConfig::new().with_page_rows(4).with_cache_pages(2);
        let bs = batches(&ds, 9);
        let steps = 8usize;

        // Uninterrupted in-memory reference.
        let mut m_full = model0.clone();
        let mut o_full = LazyDpOptimizer::new(cfg.clone(), &m_full, CounterNoise::new(4));
        for i in 0..steps {
            o_full.step(&mut m_full, &bs[i], Some(&bs[i + 1]));
        }
        o_full.finalize_model(&mut m_full);

        // Save on stored, resume on memory.
        let mut m_st = model0
            .clone()
            .try_map_tables(|_, t| StoredTable::from_dense(&t, &scfg))
            .expect("spill");
        let mut o_st = LazyDpOptimizer::new(cfg.clone(), &m_st, CounterNoise::new(4));
        for i in 0..4 {
            o_st.step(&mut m_st, &bs[i], Some(&bs[i + 1]));
        }
        let mut buf = Vec::new();
        Checkpoint::capture(&m_st, &o_st)
            .save(&mut buf)
            .expect("save");
        let ck = Checkpoint::load(&mut buf.as_slice()).expect("load");
        let (mut m2, mut o2) = ck.restore(cfg.clone(), CounterNoise::new(4));
        for i in 4..steps {
            o2.step(&mut m2, &bs[i], Some(&bs[i + 1]));
        }
        o2.finalize_model(&mut m2);
        for (a, b) in m_full.tables.iter().zip(m2.tables.iter()) {
            assert_eq!(
                a.max_abs_diff(b),
                0.0,
                "stored-save/memory-resume must be bitwise exact"
            );
        }

        // Save on memory, resume on stored (restore_stored).
        let mut m_mem = model0;
        let mut o_mem = LazyDpOptimizer::new(cfg.clone(), &m_mem, CounterNoise::new(4));
        for i in 0..4 {
            o_mem.step(&mut m_mem, &bs[i], Some(&bs[i + 1]));
        }
        let mut buf = Vec::new();
        Checkpoint::capture(&m_mem, &o_mem)
            .save(&mut buf)
            .expect("save");
        let ck = Checkpoint::load(&mut buf.as_slice()).expect("load");
        let (mut m3, mut o3) = ck
            .restore_stored(cfg, CounterNoise::new(4), &scfg)
            .expect("restore onto the paged backend");
        for i in 4..steps {
            o3.step(&mut m3, &bs[i], Some(&bs[i + 1]));
        }
        o3.finalize_model(&mut m3);
        for (a, b) in m_full.tables.iter().zip(m3.tables.iter()) {
            assert_eq!(
                b.to_dense_table().max_abs_diff(a),
                0.0,
                "memory-save/stored-resume must be bitwise exact"
            );
        }
    }

    #[test]
    fn load_rejects_garbage_and_wrong_magic() {
        let mut r: &[u8] = b"definitely not a checkpoint at all";
        assert!(Checkpoint::load(&mut r).is_err());
        let mut short: &[u8] = b"LA";
        assert!(Checkpoint::load(&mut short).is_err());
        // Corrupt version.
        let (model, _, cfg) = setup();
        let opt = LazyDpOptimizer::new(cfg.clone(), &model, CounterNoise::new(1));
        let mut buf = Vec::new();
        Checkpoint::capture(&model, &opt)
            .save(&mut buf)
            .expect("save");
        buf[8] = 0xFF;
        assert!(Checkpoint::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn checkpoints_owing_an_older_noise_stream_are_refused() {
        // A v2 checkpoint owes noise from the libm sampler stream, a v3
        // one from the two-round counter hash; neither may resume, even
        // with an intact payload and checksum.
        let (model, _, cfg) = setup();
        let opt = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(1));
        let mut buf = Checkpoint::capture(&model, &opt).to_bytes();
        assert!(Checkpoint::from_bytes(&buf).is_ok());
        for old in [2u32, 3] {
            buf[8..12].copy_from_slice(&old.to_le_bytes());
            let err = Checkpoint::from_bytes(&buf).expect_err("must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "v{old}");
            assert_eq!(err.to_string(), "unsupported checkpoint version");
        }
    }

    /// A freshly captured checkpoint of the `setup` model.
    fn fresh_checkpoint() -> Checkpoint {
        let (model, _, cfg) = setup();
        let opt = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(1));
        Checkpoint::capture(&model, &opt)
    }

    /// Parses `bytes`, expecting a typed `InvalidData` refusal.
    fn refused(bytes: &[u8]) -> io::Error {
        let err = Checkpoint::from_bytes(bytes).expect_err("must be refused at load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err
    }

    #[test]
    fn short_mlp_bias_is_refused_at_load() {
        let mut ck = fresh_checkpoint();
        ck.weights[1].pop();
        let err = refused(&ck.to_bytes());
        assert_eq!(err.to_string(), "MLP tensor shape mismatch");
    }

    #[test]
    fn missing_layer_tensor_is_refused_at_load() {
        let mut ck = fresh_checkpoint();
        let first_top_weight = 2 * ck.config.bottom_layers.len();
        ck.weights.remove(first_top_weight);
        let err = refused(&ck.to_bytes());
        assert_eq!(err.to_string(), "checkpoint tensor count mismatch");
    }

    #[test]
    fn nonzero_interaction_tag_is_refused_at_load() {
        let mut buf = fresh_checkpoint().to_bytes();
        // The tag follows three u64 config words; re-seal the checksum so
        // only the tag is wrong.
        let tag = HEADER_LEN + 3 * 8;
        buf[tag..tag + 4].copy_from_slice(&1u32.to_le_bytes());
        let end = buf.len() - TRAILER_LEN;
        let sum = fnv1a64(&buf[HEADER_LEN..end]);
        buf[end..].copy_from_slice(&sum.to_le_bytes());
        let err = refused(&buf);
        assert_eq!(err.to_string(), "unknown interaction kind");
    }
}
