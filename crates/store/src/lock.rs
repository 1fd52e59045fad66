//! The state directory's `LOCK` file, held with an exclusive `flock`.
//!
//! The daemon must never let two processes interleave appends into one
//! state directory. The owner holds an exclusive advisory lock on `LOCK`
//! for as long as it runs, and writes its PID into the file for error
//! messages. The kernel drops the lock when its owner dies, so a crashed
//! daemon leaves no stale lock to reclaim: crash recovery needs no manual
//! lockfile cleanup, and whatever PID the old file still holds is simply
//! overwritten.

use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::Write;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

use crate::StoreError;

/// File name of the lock inside a state directory.
pub const LOCK_FILE: &str = "LOCK";

/// A held directory lock; releases (deletes the lockfile, then drops the
/// `flock`) on drop.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
    pid: u32,
    /// Holds the `flock`; closing it releases the lock.
    _file: File,
}

impl DirLock {
    /// Acquires the lock for `dir`.
    ///
    /// Opens (creating if needed) `LOCK` and takes an exclusive `flock` on
    /// it without blocking. A release unlinks the file while still holding
    /// the lock, so a racer that opened the file just before can lock an
    /// inode that `LOCK` no longer names; the winner therefore checks that
    /// the path still names the inode it locked (same device and inode)
    /// and starts over if not. Only then does it write its PID.
    ///
    /// # Errors
    /// [`StoreError::Locked`] when the lock is held, by another process or
    /// by an earlier store instance in this one (its PID, or 0 while the
    /// holder has not written it yet); [`StoreError::Io`] on filesystem
    /// failures or when the race cannot be settled.
    pub fn acquire(dir: &Path) -> Result<DirLock, StoreError> {
        let path = dir.join(LOCK_FILE);
        let io_err =
            |what: &str, e| StoreError::io(format!("{what} lockfile {}", path.display()), e);
        // Bounded: each retry means a holder released the lock between our
        // open and our `flock`; 16 rounds of that is churn worth surfacing,
        // not spinning through.
        for _ in 0..16 {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
                .map_err(|e| io_err("open", e))?;
            match file.try_lock() {
                Ok(()) => {}
                Err(TryLockError::WouldBlock) => {
                    let pid = fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| text.trim().parse().ok())
                        .unwrap_or(0);
                    return Err(StoreError::Locked {
                        pid,
                        path: path.display().to_string(),
                    });
                }
                Err(TryLockError::Error(e)) => return Err(io_err("lock", e)),
            }
            let held = file.metadata().map_err(|e| io_err("stat", e))?;
            match fs::metadata(&path) {
                Ok(now) if now.dev() == held.dev() && now.ino() == held.ino() => {}
                // Released and unlinked under us: dropping `file` lets go
                // of the orphaned inode's lock.
                _ => continue,
            }
            let pid = std::process::id();
            file.set_len(0)
                .and_then(|()| writeln!(file, "{pid}"))
                .map_err(|e| io_err("write", e))?;
            return Ok(DirLock {
                path,
                pid,
                _file: file,
            });
        }
        Err(io_err(
            "acquire",
            std::io::Error::other("lockfile kept changing hands; giving up after 16 attempts"),
        ))
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Unlink while the `flock` is still held (`_file` closes after this
        // body), so no racer locks this inode and takes it for the live
        // lock. Leave a file that no longer names this process alone: it
        // was replaced under us, and is not ours to remove.
        if let Ok(content) = fs::read_to_string(&self.path) {
            if content.trim().parse::<u32>() == Ok(self.pid) {
                let _ = fs::remove_file(&self.path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nws-store-lock-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_writes_own_pid_and_release_removes() {
        let dir = temp_dir("basic");
        let lock = DirLock::acquire(&dir).unwrap();
        let content = fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(content.trim().parse::<u32>().unwrap(), std::process::id());
        drop(lock);
        assert!(!dir.join(LOCK_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_lock_rejected_even_from_same_process() {
        let dir = temp_dir("live");
        let _held = DirLock::acquire(&dir).unwrap();
        match DirLock::acquire(&dir) {
            Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_reclaimed() {
        let dir = temp_dir("stale");
        // No real process gets the PID ceiling; this lock is dead on arrival.
        fs::write(dir.join(LOCK_FILE), "4194303999\n").unwrap();
        let lock = DirLock::acquire(&dir).unwrap();
        let content = fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(content.trim().parse::<u32>().unwrap(), std::process::id());
        drop(lock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_lock_content_treated_as_stale() {
        let dir = temp_dir("garbage");
        fs::write(dir.join(LOCK_FILE), "not-a-pid\n").unwrap();
        assert!(DirLock::acquire(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn racing_reclaimers_of_one_stale_lock_produce_one_winner() {
        // Seed a dead owner's lockfile, then race many threads to take it.
        // The `flock` lets exactly one through; the rest report Locked.
        let dir = temp_dir("race");
        fs::write(dir.join(LOCK_FILE), "4194303999\n").unwrap();
        let results: Vec<Result<DirLock, StoreError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| DirLock::acquire(&dir))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let winners = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(winners, 1, "exactly one racer may hold the lock");
        for r in &results {
            if let Err(e) = r {
                assert!(
                    matches!(e, StoreError::Locked { .. }),
                    "losers must see Locked, got {e:?}"
                );
            }
        }
        // The winner's lockfile carries this process's PID and no other
        // file appears beside it.
        let content = fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(content.trim().parse::<u32>().unwrap(), std::process::id());
        let stragglers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != LOCK_FILE)
            .collect();
        assert!(stragglers.is_empty(), "leftover files: {stragglers:?}");
        drop(results);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reclaim_after_owner_death_is_clean() {
        // Repeated dead-owner→acquire cycles never leave a file behind.
        let dir = temp_dir("cycles");
        for _ in 0..5 {
            fs::write(dir.join(LOCK_FILE), "4194303999\n").unwrap();
            let lock = DirLock::acquire(&dir).unwrap();
            drop(lock);
            assert!(!dir.join(LOCK_FILE).exists());
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_leaves_a_reclaimed_lock_alone() {
        let dir = temp_dir("reclaimed");
        let lock = DirLock::acquire(&dir).unwrap();
        // Simulate the file having been replaced under the holder.
        fs::write(dir.join(LOCK_FILE), "999999999\n").unwrap();
        drop(lock);
        assert!(dir.join(LOCK_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
