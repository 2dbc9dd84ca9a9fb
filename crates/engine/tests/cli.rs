//! The `chipletqc-engine` binary's one-shot path, driven as a
//! subprocess: `--out` writes exactly the batch's artifacts plus the
//! report, `--no-files` prints that same report as the only stdout
//! output, and human-readable lines never reach stdout.

use std::process::{Command, Output};

use chipletqc_engine::report::strip_counter_objects;

fn engine(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chipletqc-engine"))
        .args(args)
        .output()
        .expect("spawn chipletqc-engine")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

#[test]
fn out_writes_the_artifacts_and_no_files_prints_the_report() {
    let dir = std::env::temp_dir().join(format!("chipletqc-cli-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");

    let written = engine(&["--quick", "--only", "fig3b,fig7", "--out", dir_arg]);
    assert!(written.status.success(), "--out run failed: {}", text(&written.stderr));
    assert_eq!(text(&written.stdout), "", "--out must keep stdout empty");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("read the artifact directory")
        .map(|entry| entry.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    files.sort();
    assert_eq!(files, ["fig3b.txt", "fig7.txt", "run_report.json"]);
    let on_disk = std::fs::read_to_string(dir.join("run_report.json")).expect("read report");

    // A store adds its own human-readable lines; they too stay off stdout.
    let store = dir.join("store");
    let store_arg = store.to_str().expect("utf-8 temp path");
    let printed =
        engine(&["--quick", "--only", "fig3b,fig7", "--no-files", "--cache-dir", store_arg]);
    assert!(printed.status.success(), "--no-files run failed: {}", text(&printed.stderr));
    assert_eq!(
        strip_counter_objects(&text(&printed.stdout)),
        strip_counter_objects(&on_disk),
        "--no-files stdout must be exactly the report --out writes"
    );
    std::fs::remove_dir_all(&dir).expect("remove the artifact directory");
}

#[test]
fn bench_is_not_a_subcommand() {
    let out = engine(&["bench"]);
    assert!(!out.status.success(), "`bench` must be rejected");
    let stderr = text(&out.stderr);
    assert!(stderr.contains("unknown argument bench"), "{stderr}");
}
