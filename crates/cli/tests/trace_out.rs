//! End-to-end tape-op profiling drill against the real `adec` binary:
//! a run with `--trace-out` must leave the training trajectory untouched
//! (final checkpoints and labels bitwise identical to a run without it)
//! while producing a parseable `adec-prof/v1` profile, and the `adec
//! prof` subcommand's check/diff gates must pass and fail correctly.

// Test code: a panic on I/O failure is the desired behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)]

use adec_nn::profiler::profile_from_json;
use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_adec");

fn adec_train(dir: &Path, extra: &[&str]) -> Output {
    Command::new(BIN)
        .args([
            "--method",
            "dec",
            "--dataset",
            "protein",
            "--size",
            "small",
            "--seed",
            "7",
            "--iters",
            "300",
            "--pretrain-iters",
            "100",
            "--checkpoint-dir",
        ])
        .arg(dir)
        .args(extra)
        .env_remove("ADEC_FAULTS")
        .output()
        .expect("failed to spawn adec binary")
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn trace_out_observes_without_perturbing() {
    let root = std::env::temp_dir().join(format!("adec_trace_out_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir_off = root.join("off");
    let dir_on = root.join("on");
    let labels_off = root.join("off_labels.csv");
    let labels_on = root.join("on_labels.csv");
    let profile_path = root.join("prof.json");
    std::fs::create_dir_all(&root).unwrap();

    // Reference run: profiler off.
    let out = adec_train(&dir_off, &["--labels-out", labels_off.to_str().unwrap()]);
    assert!(out.status.success(), "off run failed: {}", String::from_utf8_lossy(&out.stderr));

    // Same flags plus --trace-out: identical trajectory, plus a profile.
    let out = adec_train(
        &dir_on,
        &[
            "--labels-out",
            labels_on.to_str().unwrap(),
            "--trace-out",
            profile_path.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "on run failed: {}", String::from_utf8_lossy(&out.stderr));

    // The acceptance drill: checkpoints and labels are bitwise identical
    // with the profiler on or off.
    assert_eq!(
        read(&dir_off.join("dec.ckpt")),
        read(&dir_on.join("dec.ckpt")),
        "profiling perturbed the clustering checkpoint"
    );
    assert_eq!(
        read(&dir_off.join("pretrain.ckpt")),
        read(&dir_on.join("pretrain.ckpt")),
        "profiling perturbed the pretraining checkpoint"
    );
    assert_eq!(read(&labels_off), read(&labels_on), "profiling perturbed the labels");

    // The profile is strict adec-prof/v1 JSON covering both phases this
    // run trained, with ops and near-complete section attribution.
    let text = String::from_utf8(read(&profile_path)).unwrap();
    let profile = profile_from_json(&text).expect("profile does not parse");
    for phase in ["pretrain", "dec"] {
        let pp = profile
            .phase(phase)
            .unwrap_or_else(|| panic!("phase {phase} missing from profile"));
        assert!(pp.wall_ns > 0, "{phase}: no wall time recorded");
        assert!(
            pp.coverage() >= 0.95,
            "{phase}: sections cover only {:.1}% of wall time",
            pp.coverage() * 100.0
        );
    }
    let dec_kl = profile.phase("dec.kl").expect("dec.kl tape phase missing");
    assert!(dec_kl.op("matmul").is_some(), "dec.kl recorded no matmul ops");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn prof_subcommand_profiles_checks_and_diffs() {
    let root = std::env::temp_dir().join(format!("adec_prof_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let profile_path = root.join("pipeline.json");

    // Profile the full five-trainer pipeline at the quick scale.
    let out = Command::new(BIN)
        .args(["prof", "--seed", "7", "--pretrain-iters", "60", "--cluster-iters", "60", "--out"])
        .arg(&profile_path)
        .output()
        .expect("failed to spawn adec prof");
    assert!(out.status.success(), "prof run failed: {}", String::from_utf8_lossy(&out.stderr));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("matmul"), "table has no matmul row:\n{table}");
    assert!(table.contains("gflop/s"), "table missing throughput header:\n{table}");

    // The coverage gate passes on the pipeline's own profile: every
    // manifest op recorded, >= 95% section coverage per trainer phase.
    let out = Command::new(BIN)
        .args(["prof", "--check"])
        .arg(&profile_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "prof --check failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // Diffing a profile against itself is a no-op regression report.
    let out = Command::new(BIN)
        .args(["prof", "--diff"])
        .arg(&profile_path)
        .arg(&profile_path)
        .args(["--fail-above", "0.05"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "self-diff failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A doctored profile with one op 10x slower per call must trip the
    // gate (exit 1) — this is the CI regression hook.
    let text = std::fs::read_to_string(&profile_path).unwrap();
    let mut profile = profile_from_json(&text).unwrap();
    let op = profile
        .phases
        .iter_mut()
        .find_map(|p| p.ops.iter_mut().find(|o| o.name == "matmul"))
        .expect("no matmul op to doctor");
    op.wall_ns *= 10;
    let slow_path = root.join("slow.json");
    std::fs::write(&slow_path, adec_nn::profiler::profile_to_json(&profile)).unwrap();
    let out = Command::new(BIN)
        .args(["prof", "--diff"])
        .arg(&profile_path)
        .arg(&slow_path)
        .args(["--fail-above", "0.25"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "regressed diff must exit 1:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&root);
}
