//! Release guard for zero-copy snapshot serving (PR 10).
//!
//! An mmap-loaded model borrows every weight tensor straight out of the
//! snapshot mapping; the storage seam promises the kernels cannot tell
//! (same slices, same accumulation order). This suite checks that end to
//! end through the real server: predictions served from an mmap-loaded
//! model must be **bit-identical** to predictions served from the classic
//! owned load — single- and multi-worker, shared through one `Arc` —
//! and the cold-start stage metric must surface in the same report
//! plumbing as the per-job stages. The other half of the contract is how
//! a mapped file may be replaced: `save` renames a new file over the
//! path, so a live mapping keeps serving.

use gamora::snapshot::MmapLoadStats;
use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, TrainConfig};
use gamora_aig::Aig;
use gamora_circuits::{csa_multiplier, dadda_multiplier};
use gamora_serve::report::stages_json;
use gamora_serve::scheduler::{AnalysisKind, ServeConfig, Server};
use std::sync::Arc;

fn trained_reasoner() -> GamoraReasoner {
    let m = csa_multiplier(3);
    let mut reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 2,
            hidden: 8,
        },
        ..ReasonerConfig::default()
    });
    reasoner.fit(
        &[&m.aig],
        &TrainConfig {
            epochs: 15,
            log_every: 0,
            ..TrainConfig::default()
        },
    );
    reasoner
}

fn subjects() -> Vec<Aig> {
    vec![
        csa_multiplier(3).aig,
        csa_multiplier(5).aig,
        dadda_multiplier(4).aig,
        csa_multiplier(6).aig,
    ]
}

/// Serves every subject through a real server (cache off: every answer
/// is a forward pass) and returns the outputs' prediction vectors.
fn serve_all(reasoner: Arc<GamoraReasoner>, workers: usize) -> Vec<gamora::Predictions> {
    let server = Server::start_shared(
        reasoner,
        ServeConfig {
            max_batch: 2,
            workers,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let outputs = server
        .submit_all(
            subjects()
                .into_iter()
                .map(|a| (a, AnalysisKind::Classify))
                .collect(),
        )
        .expect("serving failed");
    server.shutdown();
    outputs.into_iter().map(|o| o.predictions).collect()
}

fn save_to_temp(reasoner: &GamoraReasoner, tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "gamora-mmap-e2e-{tag}-{}.gsnap",
        std::process::id()
    ));
    reasoner.save(&path).expect("save snapshot");
    path
}

/// The core guarantee: an mmap-loaded model serves bit-identically to an
/// owned load of the same snapshot, through single- and multi-worker
/// pools sharing one instance.
#[test]
fn mmap_served_predictions_are_bit_identical_to_owned() {
    let reasoner = trained_reasoner();
    let path = save_to_temp(&reasoner, "f32");
    let owned = GamoraReasoner::load(&path).expect("owned load");
    let (mapped, stats) = GamoraReasoner::load_mmap(&path).expect("mmap load");
    std::fs::remove_file(&path).ok();
    assert!(stats.file_bytes > 0);
    if cfg!(all(unix, target_pointer_width = "64")) {
        assert!(stats.mapped, "expected the zero-copy path on this target");
    }

    let baseline = serve_all(Arc::new(owned), 1);
    let via_map = Arc::new(mapped);
    for workers in [1usize, 2] {
        let served = serve_all(Arc::clone(&via_map), workers);
        assert_eq!(
            served, baseline,
            "mmap-served predictions diverged ({workers} workers)"
        );
    }
}

/// The cold-start stage flows through the same plumbing as the per-job
/// stages: `record_snapshot_load` lands in `stage_snapshot_load_micros`,
/// which the stage table keys as `snapshot_load` and the Prometheus text
/// exports by its metric name.
#[test]
fn snapshot_load_stage_surfaces_in_reports() {
    let reasoner = trained_reasoner();
    let path = save_to_temp(&reasoner, "stage");
    let (loaded, stats): (GamoraReasoner, MmapLoadStats) =
        GamoraReasoner::load_mmap(&path).expect("mmap load");
    std::fs::remove_file(&path).ok();

    let server = Server::start(loaded, ServeConfig::default());
    server.record_snapshot_load(stats.load_micros.max(1));
    let snapshot = server.metrics();
    server.shutdown();

    let h = snapshot
        .histogram("stage_snapshot_load_micros")
        .expect("snapshot-load stage registered");
    assert_eq!(h.count(), 1, "exactly one load recorded");
    assert!(snapshot.prometheus().contains("stage_snapshot_load_micros"));
    let rendered = stages_json(&snapshot).compact();
    assert!(
        rendered.contains("\"snapshot_load\""),
        "stage table missing snapshot_load: {rendered}"
    );
}

/// `save` replaces by rename: a reasoner mapped from `path` keeps
/// serving the weights it mapped after a different, larger model is saved
/// over the same path (an in-place rewrite would truncate the file under
/// the mapping), new loads see the new model, and the temporary file is
/// gone.
#[test]
fn save_over_a_mapped_snapshot_keeps_the_mapping_serving() {
    let dir = std::env::temp_dir().join(format!("gamora-mmap-e2e-atomic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.gsnap");
    let subject = csa_multiplier(6).aig;

    let first = trained_reasoner();
    first.save(&path).expect("first save");
    let (mapped, _) = GamoraReasoner::load_mmap(&path).expect("mmap load");
    let expected = first.predict(&subject);
    assert_eq!(mapped.predict(&subject), expected);

    let second = GamoraReasoner::new(ReasonerConfig::default());
    second.save(&path).expect("second save");
    assert_eq!(
        mapped.predict(&subject),
        expected,
        "the mapped reasoner must keep serving the file it mapped"
    );
    let reloaded = GamoraReasoner::load(&path).expect("owned load");
    assert_eq!(reloaded.config(), second.config());
    assert_eq!(reloaded.predict(&subject), second.predict(&subject));
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["model.gsnap"], "no temporary file may survive");
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed save leaves neither a temporary file nor a touched target.
#[test]
fn failed_save_leaves_nothing_behind() {
    let dir = std::env::temp_dir().join(format!("gamora-mmap-e2e-failed-{}", std::process::id()));
    // The target is a directory: the rename cannot succeed.
    std::fs::create_dir_all(dir.join("target.gsnap")).unwrap();
    let err = trained_reasoner()
        .save(dir.join("target.gsnap"))
        .expect_err("rename onto a directory");
    assert!(matches!(err, gamora::SnapshotError::Io(_)), "{err}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["target.gsnap"]);
    std::fs::remove_dir_all(&dir).ok();
}
