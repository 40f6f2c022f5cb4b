//! Release guard for snapshot files as the server meets them.
//!
//! Every load reads the whole file and verifies both checksums, so a
//! damaged payload is refused, not served — through `load` and through
//! the `load_mmap` name it once had a second storage class behind. The
//! cold-start stage metric surfaces in the same report plumbing as the
//! per-job stages. And `save` replaces a file by rename: no temporary
//! survives, success or failure, and the next load sees the new model.

use gamora::{GamoraReasoner, ModelDepth, ReasonerConfig, SnapshotError, TrainConfig};
use gamora_circuits::csa_multiplier;
use gamora_serve::report::stages_json;
use gamora_serve::scheduler::{ServeConfig, Server};
use std::time::Instant;

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

fn save_to_temp(reasoner: &GamoraReasoner, tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "gamora-snapshot-files-{tag}-{}.gsnap",
        std::process::id()
    ));
    reasoner.save(&path).expect("save snapshot");
    path
}

/// One flipped bit deep in the payload (past the header, whose own hash
/// would catch it first) is `Corrupt` through both load names.
#[test]
fn payload_bit_flip_is_corrupt_through_load_and_the_load_mmap_alias() {
    let path = save_to_temp(&trained_reasoner(), "flip");
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 5;
    bytes[at] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let owned = GamoraReasoner::load(&path).map(|_| ());
    let alias = GamoraReasoner::load_mmap(&path).map(|_| ());
    std::fs::remove_file(&path).ok();
    for (name, result) in [("load", owned), ("load_mmap", alias)] {
        let err = result.expect_err(name);
        assert!(
            matches!(&err, SnapshotError::Corrupt(m) if m.contains("payload checksum")),
            "{name}: {err}"
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
    let started = Instant::now();
    let loaded = GamoraReasoner::load(&path).expect("load");
    let load_micros = started.elapsed().as_micros() as u64;
    std::fs::remove_file(&path).ok();

    let server = Server::start(loaded, ServeConfig::default());
    server.record_snapshot_load(load_micros.max(1));
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

/// `save` replaces by rename: after a different model is saved over the
/// same path, a new load sees the new model, and the temporary file is
/// gone.
#[test]
fn save_over_a_snapshot_replaces_it_by_rename() {
    let dir = std::env::temp_dir().join(format!(
        "gamora-snapshot-files-atomic-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.gsnap");
    let subject = csa_multiplier(6).aig;

    let first = trained_reasoner();
    first.save(&path).expect("first save");
    let loaded = GamoraReasoner::load(&path).expect("load");
    assert_eq!(loaded.predict(&subject), first.predict(&subject));

    let second = GamoraReasoner::new(ReasonerConfig::default());
    second.save(&path).expect("second save");
    let reloaded = GamoraReasoner::load(&path).expect("reload");
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
    let dir = std::env::temp_dir().join(format!(
        "gamora-snapshot-files-failed-{}",
        std::process::id()
    ));
    // The target is a directory: the rename cannot succeed.
    std::fs::create_dir_all(dir.join("target.gsnap")).unwrap();
    let err = trained_reasoner()
        .save(dir.join("target.gsnap"))
        .expect_err("rename onto a directory");
    assert!(matches!(err, SnapshotError::Io(_)), "{err}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["target.gsnap"]);
    std::fs::remove_dir_all(&dir).ok();
}
