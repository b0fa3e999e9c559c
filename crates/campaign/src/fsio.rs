//! Atomic results writes.
//!
//! Every results artifact in this workspace (`results/*.json`, CI
//! smoke outputs, flight dumps) used to be written with a
//! bare `std::fs::write`, which can leave a torn half-document behind
//! on a crash mid-write. [`write_atomic`] closes that hole with the
//! classic tmp-file + rename dance: the content is fully written and
//! fsync'd to a sibling temporary file, then atomically renamed over
//! the destination, then the directory is fsync'd so the rename itself
//! is durable. Readers either see the old complete file or the new
//! complete file — never a prefix.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process sequence number for temporary names, so concurrent
/// writers of the same artifact within one process cannot collide.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `contents` to `path` atomically (tmp file + rename), creating
/// parent directories as needed.
///
/// The temporary file lives in the same directory as `path` (renames
/// are only atomic within a filesystem) and carries the pid plus a
/// per-process sequence number, so neither two processes nor two
/// threads writing the same artifact can collide on the tmp name.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => {
            fs::create_dir_all(d)?;
            Some(d)
        }
        _ => None,
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);

    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(contents.as_ref())?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best effort: don't leave the temporary behind on failure.
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Durability of the rename itself; non-fatal where directories
    // cannot be opened (e.g. some non-POSIX filesystems).
    if let Some(d) = dir {
        if let Ok(dh) = File::open(d) {
            let _ = dh.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("iba-campaign-fsio-{}-{name}", std::process::id()))
    }

    #[test]
    fn writes_and_overwrites() {
        let dir = scratch("basic");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.json");
        write_atomic(&path, "{\"a\":1}\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\":1}\n");
        write_atomic(&path, "{\"a\":2}\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"a\":2}\n");
        // No tmp litter.
        let names: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_directoryless_name() {
        assert!(write_atomic("..", "x").is_err());
    }

    #[test]
    fn concurrent_writers_never_tear_or_collide() {
        let dir = scratch("concurrent");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let docs: Vec<String> = (0..4)
            .map(|i| format!("{{\"writer\":{i}}}\n").repeat(64))
            .collect();
        std::thread::scope(|s| {
            for doc in &docs {
                let path = &path;
                s.spawn(move || {
                    for _ in 0..25 {
                        write_atomic(path, doc).unwrap();
                    }
                });
            }
        });
        let last = fs::read_to_string(&path).unwrap();
        assert!(
            docs.contains(&last),
            "final file must be one writer's complete document"
        );
        // No tmp litter from any of the 100 writes.
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
