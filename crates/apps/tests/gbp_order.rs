//! `gbp` on the real OS prints every path it was given, whatever the
//! ordering: a path it cannot stat or open is listed last, not dropped.

use std::fs;
use std::process::Command;

/// `a missing b` in every mode: three lines, `missing` last. (`a` and
/// `b` are smaller than a page, so FCCD ranks them with the same penalty
/// as the file it cannot open, and the path breaks the tie.)
#[test]
fn every_mode_lists_unstatable_paths_last() {
    let dir = std::env::temp_dir().join(format!("gbp-order-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("a"), b"first").unwrap();
    fs::write(dir.join("b"), b"second").unwrap();
    let outputs: Vec<(&str, String)> = ["-mem", "-file", "-compose", "-mtime"]
        .into_iter()
        .map(|mode| {
            let out = Command::new(env!("CARGO_BIN_EXE_gbp"))
                .args([mode, "a", "missing", "b"])
                .current_dir(&dir)
                .output()
                .unwrap();
            assert!(out.status.success(), "gbp {mode} exited {}", out.status);
            (mode, String::from_utf8(out.stdout).unwrap())
        })
        .collect();
    fs::remove_dir_all(&dir).unwrap();
    for (mode, stdout) in outputs {
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 3, "gbp {mode} printed {lines:?}");
        assert_eq!(lines[2], "missing", "gbp {mode} printed {lines:?}");
    }
}
