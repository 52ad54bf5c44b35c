//! A bench binary whose requested output file cannot be written must exit
//! non-zero and say why, instead of reporting success.

use std::process::Command;

#[test]
fn fig07_unwritable_csv_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig07_imbalance"))
        .args(["--elements", "2000", "--parts", "2"])
        .args(["--csv", "/nonexistent-dir/x.csv"])
        .output()
        .expect("run fig07_imbalance");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(
        stderr.contains("could not write /nonexistent-dir/x.csv"),
        "stderr: {stderr}"
    );
}
