//! Property-based tests of the core invariants, across randomized
//! traces, shapes, and hyper-parameters.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{clip_weights_into, ClipStyle, DpConfig, EagerDpSgd, Optimizer};
use lazydp::embedding::{EmbeddingStorage, SparseGrad};
use lazydp::lazy::{aggregated_std, HistoryTable, LazyDpConfig, LazyDpOptimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::{Prng, Xoshiro256PlusPlus};
use proptest::prelude::*;

/// Builds batches from a proptest-chosen access script so the trace
/// shape itself is randomized (hot rows, repeats, variable batch).
fn batches_from_script(
    tables: usize,
    rows: u64,
    script: &[Vec<u64>],
) -> (SyntheticDataset, Vec<MiniBatch>) {
    let ds = SyntheticDataset::new(SyntheticConfig::small(tables, rows, 64));
    let batches = script
        .iter()
        .map(|accesses| {
            let n = accesses.len().max(1);
            let mut b = ds.batch_of(&(0..n).collect::<Vec<_>>());
            for t in 0..tables {
                let samples: Vec<Vec<u64>> = (0..n)
                    .map(|i| vec![accesses[i % accesses.len().max(1)] % rows])
                    .collect();
                b.sparse[t] = lazydp::embedding::bag::BagIndices::from_samples(&samples);
            }
            b
        })
        .collect();
    (ds, batches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// LazyDP(w/o ANS) ≡ eager DP-SGD(F) for *arbitrary* access traces,
    /// not just the well-behaved loader ones.
    #[test]
    fn lazy_eager_equivalence_on_random_traces(
        script in proptest::collection::vec(
            proptest::collection::vec(0u64..40, 1..6), 3..7),
        seed in 0u64..1000,
    ) {
        let rows = 40u64;
        let (_, batches) = batches_from_script(2, rows, &script);
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let model0 = Dlrm::new(DlrmConfig::tiny(2, rows, 4), &mut rng);
        let dp = DpConfig::new(0.8, 1.0, 0.05, 4);
        let steps = batches.len() - 1;

        let mut eager_model = model0.clone();
        let mut eager = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(seed));
        for b in batches.iter().take(steps) {
            eager.step(&mut eager_model, b, None);
        }
        let mut lazy_model = model0;
        let mut lazy = LazyDpOptimizer::new(
            LazyDpConfig::new(dp, false),
            &lazy_model,
            CounterNoise::new(seed),
        );
        for i in 0..steps {
            lazy.step(&mut lazy_model, &batches[i], Some(&batches[i + 1]));
        }
        lazy.finalize_model(&mut lazy_model);
        for (t, (a, b)) in eager_model.tables.iter().zip(lazy_model.tables.iter()).enumerate() {
            let d = a.max_abs_diff(b);
            prop_assert!(d < 2e-3, "table {t} diverged by {d}");
        }
    }

    /// Clipping: after applying the clip weight, every per-example
    /// gradient norm is ≤ C (+ float slack).
    #[test]
    fn clipped_norms_never_exceed_threshold(
        c in 0.01f64..5.0,
        norms_sq in proptest::collection::vec(0.0f64..100.0, 1..40),
    ) {
        let mut w = Vec::new();
        clip_weights_into(&norms_sq, c, &mut w);
        for (&n_sq, &wi) in norms_sq.iter().zip(w.iter()) {
            let clipped = n_sq.sqrt() * f64::from(wi);
            prop_assert!(clipped <= c * (1.0 + 1e-5), "{clipped} > {c}");
            // And clipping never flips direction or overshoots.
            prop_assert!((0.0..=1.0 + 1e-6).contains(&f64::from(wi)));
        }
    }

    /// Coalescing preserves the per-row gradient sums exactly.
    #[test]
    fn coalesce_preserves_row_sums(
        entries in proptest::collection::vec((0u64..20, proptest::collection::vec(-10.0f32..10.0, 3)), 0..30),
    ) {
        let mut g = SparseGrad::new(3);
        for (idx, vals) in &entries {
            g.push(*idx, vals);
        }
        let dense_before = g.to_dense_map();
        let merged = g.coalesce();
        let dense_after = g.to_dense_map();
        prop_assert_eq!(dense_before.len(), dense_after.len());
        for (idx, before) in &dense_before {
            let after = &dense_after[idx];
            for (a, b) in after.iter().zip(before.iter()) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
        // Entry count shrank by exactly the merged duplicates.
        prop_assert_eq!(g.len() + merged, entries.len());
        // And indices are now sorted unique.
        let idxs = g.indices();
        prop_assert!(idxs.windows(2).all(|w| w[0] < w[1]));
    }

    /// The HistoryTable's delay arithmetic: the delays handed out for a
    /// row across any access pattern sum to the final iteration count.
    #[test]
    fn history_delays_partition_time(
        access_iters in proptest::collection::btree_set(1u64..50, 0..12),
        horizon in 50u64..60,
    ) {
        let mut h = HistoryTable::new(1);
        let mut total = 0u64;
        for &it in &access_iters {
            total += h.take_delays(0, it);
        }
        total += h.take_delays(0, horizon);
        prop_assert_eq!(total, horizon, "delays must partition 1..=horizon");
    }

    /// ANS std scaling: a single aggregated draw has exactly the
    /// variance of the sum it replaces, for any delay count.
    #[test]
    fn ans_std_matches_sum_variance(delays in 0u64..10_000, std in 0.0f32..4.0) {
        let agg = aggregated_std(std, delays);
        let var_sum = f64::from(std) * f64::from(std) * delays as f64;
        let var_agg = f64::from(agg) * f64::from(agg);
        prop_assert!((var_agg - var_sum).abs() <= var_sum * 1e-5 + 1e-9);
    }

    /// DESIGN invariant #4 at the system level: a full LazyDP run —
    /// `step`s plus `finalize_model` — is **bitwise** identical for any
    /// executor width, on random Zipf-skewed access traces. Phase 1 of
    /// every noise plan is serial history bookkeeping and phase 2 is
    /// chunk-addressed sampling, so threads ∈ {1, 2, 3, 8} must agree
    /// exactly (not just within float slack).
    #[test]
    fn lazydp_training_is_thread_count_independent(
        exponent in 0.4f64..1.4,
        seed in 0u64..1000,
        ans in proptest::bool::ANY,
    ) {
        use lazydp::data::AccessDistribution;
        let rows = 48u64;
        let steps = 4usize;
        let dist = AccessDistribution::zipf(rows, exponent);
        let mut trace_rng = Xoshiro256PlusPlus::seed_from(seed ^ 0x5eed_7ace);
        let script: Vec<Vec<u64>> = (0..=steps)
            .map(|_| dist.sample_many(&mut trace_rng, 5))
            .collect();
        let (_, batches) = batches_from_script(2, rows, &script);
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let model0 = Dlrm::new(DlrmConfig::tiny(2, rows, 4), &mut rng);
        let run = |threads: usize| -> Dlrm {
            let dp = DpConfig::new(0.8, 1.0, 0.05, 4).with_threads(threads);
            let mut model = model0.clone();
            let mut opt = LazyDpOptimizer::new(
                LazyDpConfig::new(dp, ans),
                &model,
                CounterNoise::new(seed),
            );
            for i in 0..steps {
                opt.step(&mut model, &batches[i], Some(&batches[i + 1]));
            }
            opt.finalize_model(&mut model);
            model
        };
        let base = run(1);
        for threads in [2usize, 3, 8] {
            let m = run(threads);
            for (t, (a, b)) in base.tables.iter().zip(m.tables.iter()).enumerate() {
                prop_assert!(
                    a.max_abs_diff(b) == 0.0,
                    "table {t} changed at {threads} threads"
                );
            }
            for (a, b) in base
                .top
                .layers()
                .iter()
                .zip(m.top.layers().iter())
                .chain(base.bottom.layers().iter().zip(m.bottom.layers().iter()))
            {
                prop_assert!(
                    a.weight.max_abs_diff(&b.weight) == 0.0,
                    "MLP weights changed at {threads} threads"
                );
                prop_assert!(a.bias == b.bias, "MLP bias changed at {threads} threads");
            }
        }
    }

    /// The out-of-core tentpole invariant: a full LazyDP run — `step`s
    /// plus `finalize_model` — on the paged `StoredTable` backend is
    /// **bitwise** identical to the in-memory run on Zipf-skewed
    /// traces, across page geometries, cache capacities (including a
    /// pathological 1-page cache), and both ways a
    /// stored model comes to be: a dense one spilled page by page, or
    /// `lazy_uniform` tables that are written nowhere until training
    /// dirties a page. Paging changes where rows live, never their
    /// values. The paged runs are pinned at widths 1 and 2, so even a
    /// 1-vCPU host checks the overlapped flush against paged tables.
    #[test]
    fn stored_backend_matches_memory_backend(
        exponent in 0.4f64..1.4,
        seed in 0u64..1000,
        page_rows in 1usize..9,
        cache_pages in 1usize..10,
        lazy_init in proptest::bool::ANY,
    ) {
        use lazydp::data::AccessDistribution;
        use lazydp::store::{StorageConfig, StoredTable};
        let rows = 48u64;
        let steps = 4usize;
        let dist = AccessDistribution::zipf(rows, exponent);
        let mut trace_rng = Xoshiro256PlusPlus::seed_from(seed ^ 0x0070_4a6e);
        let script: Vec<Vec<u64>> = (0..=steps)
            .map(|_| dist.sample_many(&mut trace_rng, 5))
            .collect();
        let (_, batches) = batches_from_script(2, rows, &script);
        let cfg = LazyDpConfig::new(DpConfig::new(0.8, 1.0, 0.05, 4), true);
        let scfg = StorageConfig::new()
            .with_page_rows(page_rows)
            .with_cache_pages(cache_pages);
        let tiny = DlrmConfig::tiny(2, rows, 4);
        let rng = Xoshiro256PlusPlus::seed_from(seed);
        // Same RNG draws on both sides (MLPs, then, for lazy tables, one
        // fill seed per table); a lazy memory side is the step-0
        // `to_dense_table` snapshot.
        let lazy_table = |rows, dim, rng: &mut Xoshiro256PlusPlus| {
            StoredTable::lazy_uniform(rows, dim, rng.next_u64(), &scfg)
        };
        let mut mem = if lazy_init {
            Dlrm::try_new_with(tiny.clone(), &mut rng.clone(), |rows, dim, rng| {
                lazy_table(rows, dim, rng).map(|t| t.to_dense_table())
            })
            .expect("spill dir must be writable")
        } else {
            Dlrm::new(tiny.clone(), &mut rng.clone())
        };
        let mem0 = mem.clone();
        let stored_model = || {
            if lazy_init {
                Dlrm::try_new_with(tiny.clone(), &mut rng.clone(), lazy_table)
            } else {
                mem0.clone().try_map_tables(|_, t| StoredTable::from_dense(&t, &scfg))
            }
            .expect("spill dir must be writable")
        };

        // In-memory reference.
        let mut o_mem = LazyDpOptimizer::new(cfg.clone(), &mem, CounterNoise::new(seed));
        for i in 0..steps {
            o_mem.step(&mut mem, &batches[i], Some(&batches[i + 1]));
        }
        o_mem.finalize_model(&mut mem);

        // Paged backend over the same trace, seed, and config, at an
        // explicit width each: 1 drains the flush queue on the main
        // thread, 2 overlaps it with the forward on any host.
        for threads in [1usize, 2] {
            let mut stored = stored_model();
            let cfg = cfg.clone().with_threads(threads);
            let mut o_st = LazyDpOptimizer::new(cfg, &stored, CounterNoise::new(seed));
            for i in 0..steps {
                o_st.step(&mut stored, &batches[i], Some(&batches[i + 1]));
            }
            o_st.finalize_model(&mut stored);

            for (t, (a, b)) in mem.tables.iter().zip(stored.tables.iter()).enumerate() {
                prop_assert!(
                    b.to_dense_table().max_abs_diff(a) == 0.0,
                    "table {t} diverged on the paged backend (page_rows {page_rows}, \
                     cache {cache_pages}, lazy {lazy_init}, threads {threads})"
                );
            }
        }
    }

    /// DP-AdaFEST's determinism contract: a full run — `step`s plus
    /// `finalize` — is **bitwise** invariant across the threads knob
    /// {1, 4} and the storage backend
    /// (in-memory vs paged `StoredTable`), on random Zipf-skewed access
    /// traces. Selection and noise are addressed by (table, partition/
    /// row, iter), never by execution order.
    #[test]
    fn adafest_training_is_invariant_across_threads_and_backends(
        exponent in 0.4f64..1.4,
        seed in 0u64..1000,
        partition_rows in 1usize..20,
    ) {
        use lazydp::data::AccessDistribution;
        use lazydp::dpsgd::{AdaFestConfig, AdaFestOptimizer};
        use lazydp::store::{StorageConfig, StoredTable};
        let rows = 48u64;
        let steps = 4usize;
        let dist = AccessDistribution::zipf(rows, exponent);
        let mut trace_rng = Xoshiro256PlusPlus::seed_from(seed ^ 0xada_fe57);
        let script: Vec<Vec<u64>> = (0..=steps)
            .map(|_| dist.sample_many(&mut trace_rng, 5))
            .collect();
        let (_, batches) = batches_from_script(2, rows, &script);
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let model0 = Dlrm::new(DlrmConfig::tiny(2, rows, 4), &mut rng);
        let cfg_for = |threads: usize| AdaFestConfig::new(
            DpConfig::new(0.8, 1.0, 0.05, 4).with_threads(threads),
            1.0,
            1.5,
            partition_rows,
        );
        let run_mem = |threads: usize| -> Dlrm {
            let mut model = model0.clone();
            let mut opt = AdaFestOptimizer::new(cfg_for(threads), CounterNoise::new(seed));
            for b in batches.iter().take(steps) {
                opt.step(&mut model, b, None);
            }
            opt.finalize(&mut model);
            model
        };
        let base = run_mem(1);
        let m = run_mem(4);
        for (t, (a, b)) in base.tables.iter().zip(m.tables.iter()).enumerate() {
            prop_assert!(a.max_abs_diff(b) == 0.0, "table {t} changed at 4 threads");
        }
        for (a, b) in base
            .top
            .layers()
            .iter()
            .zip(m.top.layers().iter())
            .chain(base.bottom.layers().iter().zip(m.bottom.layers().iter()))
        {
            prop_assert!(a.weight.max_abs_diff(&b.weight) == 0.0);
            prop_assert!(a.bias == b.bias);
        }
        // Paged backend over the same trace, seed, and config.
        let scfg = StorageConfig::new().with_page_rows(3).with_cache_pages(2);
        let mut stored = model0
            .try_map_tables(|_, t| StoredTable::from_dense(&t, &scfg))
            .expect("spill dir must be writable");
        let mut opt = AdaFestOptimizer::new(cfg_for(4), CounterNoise::new(seed));
        for b in batches.iter().take(steps) {
            opt.step(&mut stored, b, None);
        }
        opt.finalize(&mut stored);
        for (t, (a, b)) in base.tables.iter().zip(stored.tables.iter()).enumerate() {
            prop_assert!(
                b.to_dense_table().max_abs_diff(a) == 0.0,
                "table {t} diverged on the paged backend"
            );
        }
    }

    /// AdaFEST's partition selection is a pure function of
    /// (seed, table, iteration, counts): recomputing it — even from a
    /// noise source that has been used for arbitrary other draws —
    /// yields the identical mask.
    #[test]
    fn adafest_selection_is_a_pure_function_of_seed_and_batch(
        counts in proptest::collection::vec(0u64..50, 1..32),
        seed in 0u64..1000,
        table in 0u32..8,
        iter in 1u64..100,
        sigma_select in 0.2f64..4.0,
        threshold in -2.0f64..8.0,
    ) {
        use lazydp::dpsgd::adafest::select_partitions_into;
        let select = |noise: &mut CounterNoise| {
            let mut sel = Vec::new();
            select_partitions_into(
                table, &counts, sigma_select, threshold, noise, iter, &mut sel);
            sel
        };
        let fresh = select(&mut CounterNoise::new(seed));
        prop_assert_eq!(fresh.len(), counts.len());
        // Same seed, fresh source ⇒ same mask.
        prop_assert_eq!(&fresh, &select(&mut CounterNoise::new(seed)));
        // A source that already served other draws gives the same mask:
        // selection draws are addressed, not consumed from a stream.
        let mut used = CounterNoise::new(seed);
        let mut sink = vec![0.0f32; 16];
        use lazydp::rng::RowNoise;
        used.fill_unit(table, 7, iter, &mut sink);
        used.fill_unit_dense(3, iter, 2, &mut sink);
        prop_assert_eq!(&fresh, &select(&mut used));
    }

    /// The seek is a window of the full fill: elements
    /// `start..start + len` of `fill_unit_dense(param, iter, 0, ·)` and
    /// of `fill_unit(table, row, iter, ·)`, bitwise, at odd and even
    /// starts, for empty and one-element windows and for lengths off the
    /// fused kernel's 8-pair vector step and across the kernels'
    /// 256-value stack block.
    #[test]
    fn dense_seek_is_a_window_of_the_full_fill(
        seed in 0u64..1000,
        param in 0u32..200,
        table in 0u32..64,
        row in 0u64..1_000_000,
        iter in 1u64..100,
        start in 0usize..300,
        len in 0usize..300,
    ) {
        use lazydp::rng::RowNoise;
        let mut noise = CounterNoise::new(seed);
        let (mut dense, mut rows) = (vec![0.0f32; 640], vec![0.0f32; 640]);
        noise.fill_unit_dense(param, iter, 0, &mut dense);
        noise.fill_unit(table, row, iter, &mut rows);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for start in [start, start | 1] {
            for len in [0, 1, len, 33] {
                let mut got = vec![0.0f32; len];
                noise.fill_unit_dense_at(param, iter, start as u64, &mut got);
                prop_assert_eq!(
                    bits(&got),
                    bits(&dense[start..start + len]),
                    "dense start {} len {}",
                    start,
                    len
                );
                noise.fill_unit_at(table, row, iter, start as u64, &mut got);
                prop_assert_eq!(
                    bits(&got),
                    bits(&rows[start..start + len]),
                    "row start {} len {}",
                    start,
                    len
                );
            }
        }
    }

    /// A bag's one dedup: the distinct rows are the sorted, deduplicated
    /// lookups, every lookup's slot names its row, and each sample's
    /// `Σ c²` is the sum of its squared run lengths once sorted.
    #[test]
    fn bag_dedup_invariants(
        samples in proptest::collection::vec(proptest::collection::vec(0u64..30, 0..8), 0..12),
    ) {
        let bag = lazydp::embedding::bag::BagIndices::from_samples(&samples);
        let flat = bag.flat_indices();
        let mut want = flat.to_vec();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(bag.unique_rows(), &want[..]);
        prop_assert_eq!(bag.slots().len(), flat.len());
        for (k, &s) in bag.slots().iter().enumerate() {
            prop_assert_eq!(bag.unique_rows()[s as usize], flat[k]);
        }
        for (i, sample) in samples.iter().enumerate() {
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            let mut c_sq = 0u64;
            for run in sorted.chunk_by(|a, b| a == b) {
                c_sq += (run.len() * run.len()) as u64;
            }
            prop_assert_eq!(bag.count_sq(i), c_sq, "sample {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// V2 checkpoint robustness: flipping any single bit or truncating
    /// the byte stream at any point yields a typed error from
    /// [`Checkpoint::from_bytes`] — never a panic, never a silent load
    /// of torn state. (The payload checksum is verified *before* any
    /// length field is trusted, so corrupted lengths cannot drive
    /// allocation either.)
    #[test]
    fn checkpoint_rejects_any_bit_flip_or_truncation(
        pos_sel in 0.0f64..1.0,
        bit in 0u32..8,
        seed in 0u64..100,
    ) {
        use lazydp::lazy::Checkpoint;
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let model = Dlrm::new(DlrmConfig::tiny(1, 8, 4), &mut rng);
        let opt = LazyDpOptimizer::new(
            LazyDpConfig::new(DpConfig::new(0.8, 1.0, 0.05, 4), false),
            &model,
            CounterNoise::new(seed),
        );
        let bytes = Checkpoint::capture(&model, &opt).to_bytes();
        prop_assert!(Checkpoint::from_bytes(&bytes).is_ok(), "intact bytes must load");

        let pos = ((pos_sel * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1u8 << bit;
        prop_assert!(
            Checkpoint::from_bytes(&flipped).is_err(),
            "bit {bit} of byte {pos} flipped: load must fail typed"
        );
        prop_assert!(
            Checkpoint::from_bytes(&bytes[..pos]).is_err(),
            "truncation to {pos} bytes: load must fail typed"
        );
    }

    /// Corrupting the newest on-disk checkpoint at any byte makes
    /// `resume_latest` fall back to the previous last-good manifest
    /// entry instead of erroring or loading torn state.
    #[test]
    fn resume_latest_falls_back_when_the_newest_checkpoint_is_corrupted(
        pos_sel in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        use lazydp::lazy::{Checkpoint, CheckpointStore};
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lazydp-prop-fallback-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        let mut model = Dlrm::new(DlrmConfig::tiny(1, 8, 4), &mut rng);
        let mut opt = LazyDpOptimizer::new(
            LazyDpConfig::new(DpConfig::new(0.8, 1.0, 0.05, 4), false),
            &model,
            CounterNoise::new(5),
        );
        let mut store = CheckpointStore::open(&dir).expect("open");
        let empty = MiniBatch::default();
        let mut newest = std::path::PathBuf::new();
        for _ in 0..2 {
            opt.step(&mut model, &empty, Some(&empty));
            newest = store
                .save(&Checkpoint::capture(&model, &opt))
                .expect("save");
        }

        // Flip one bit of the newest published checkpoint on disk.
        let mut bytes = std::fs::read(&newest).expect("read newest");
        let pos = ((pos_sel * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1u8 << bit;
        std::fs::write(&newest, &bytes).expect("write corruption");

        let reopened = CheckpointStore::open(&dir).expect("reopen");
        let resumed = reopened
            .resume_latest()
            .expect("fallback, not error")
            .expect("the previous entry is still good");
        prop_assert_eq!(resumed.iteration, 1, "must fall back to iteration 1");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
