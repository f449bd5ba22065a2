//! `gbp -mem -out` on the real OS must not report success when its
//! output cannot be written.

use std::fs::{self, OpenOptions};
use std::process::{Command, Stdio};

/// With stdout on `/dev/full` every write fails with "no space left on
/// device": gbp must stop, say so, and exit non-zero rather than read the
/// rest of the file into a sink that drops it.
#[test]
fn out_to_a_full_device_fails() {
    let Ok(full) = OpenOptions::new().write(true).open("/dev/full") else {
        println!("skipped: /dev/full is not available on this system");
        return;
    };
    let dir = std::env::temp_dir().join(format!("gbp-out-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("big.dat"), vec![7u8; 256 << 10]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gbp"))
        .args(["-mem", "-out", "big.dat"])
        .current_dir(&dir)
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "gbp exited {} after a failed write",
        out.status
    );
    assert!(stderr.starts_with("gbp: "), "stderr: {stderr:?}");
}
