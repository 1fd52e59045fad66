//! PID-carrying lockfiles with liveness-based stale detection.
//!
//! The daemon must never let two processes interleave appends into one
//! state directory. A `LOCK` file holding the owner's PID provides mutual
//! exclusion; a lock whose PID is no longer alive (the previous daemon
//! crashed) is *stale* and silently reclaimed — crash recovery must not
//! require manual lockfile cleanup.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::StoreError;

/// File name of the lock inside a state directory.
pub const LOCK_FILE: &str = "LOCK";

/// A held directory lock; releases (deletes the lockfile) on drop.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
    pid: u32,
}

/// Whether a process with `pid` is currently alive.
///
/// Uses `/proc/<pid>` existence, which is the portable-enough answer on
/// the Linux targets this workspace supports. The calling process itself
/// always counts as alive.
pub fn pid_alive(pid: u32) -> bool {
    pid == std::process::id() || Path::new(&format!("/proc/{pid}")).exists()
}

impl DirLock {
    /// Acquires the lock for `dir`, reclaiming a stale one.
    ///
    /// The lockfile appears with its PID already inside: it is written
    /// under a private name and hard-linked into place, and the link fails
    /// if a lock exists — so no racer ever reads a half-written lock and
    /// mistakes it for garbage. A stale lock is reclaimed by *renaming* it
    /// aside before retrying — the rename is the atomic arbiter, so two
    /// daemons racing to reclaim the same dead lock cannot both win (only
    /// one rename of the same source succeeds). After linking its own
    /// lockfile the winner re-reads it and verifies its own PID, guarding
    /// against a third racer that replaced the file in the window.
    ///
    /// # Errors
    /// [`StoreError::Locked`] when a live process (including this one,
    /// via an earlier store instance) holds the lock; [`StoreError::Io`]
    /// on filesystem failures or when the race cannot be settled.
    pub fn acquire(dir: &Path) -> Result<DirLock, StoreError> {
        // Private staging names must differ between racing threads of one
        // process too, which share the PID.
        static ATTEMPTS: AtomicU64 = AtomicU64::new(0);
        let path = dir.join(LOCK_FILE);
        let pid = std::process::id();
        // Bounded: each retry means another process made visible progress
        // (created or reclaimed a lock); 16 rounds of that without a
        // settled outcome is churn worth surfacing, not spinning through.
        for _ in 0..16 {
            let attempt = ATTEMPTS.fetch_add(1, Ordering::Relaxed);
            let staged = dir.join(format!("{LOCK_FILE}.new.{pid}.{attempt}"));
            let linked = fs::File::create(&staged)
                .and_then(|mut file| {
                    writeln!(file, "{pid}")?;
                    file.sync_all()
                })
                .and_then(|()| fs::hard_link(&staged, &path));
            let _ = fs::remove_file(&staged);
            match linked {
                Ok(()) => {
                    // Verify ownership: another racer may have judged the
                    // lock stale and replaced it in the window.
                    let content = fs::read_to_string(&path).unwrap_or_default();
                    if content.trim().parse::<u32>() == Ok(pid) {
                        return Ok(DirLock { path, pid });
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => {
                    return Err(StoreError::io(
                        format!("create lockfile {}", path.display()),
                        e,
                    ));
                }
            }
            // Lock exists. Live owner → refused; dead or garbage → stale.
            let existing = match fs::read_to_string(&path) {
                Ok(text) => text,
                // Deleted between link and read: owner released; retry.
                Err(_) => continue,
            };
            if let Ok(owner) = existing.trim().parse::<u32>() {
                if pid_alive(owner) {
                    return Err(StoreError::Locked {
                        pid: owner,
                        path: path.display().to_string(),
                    });
                }
            }
            // Reclaim by renaming the stale file aside: exactly one racer's
            // rename succeeds, and that racer retries the link above. A
            // racer that read the stale lock before another reclaimed it
            // moves the fresh lock instead, and links it back.
            let grave = dir.join(format!("{LOCK_FILE}.stale.{pid}.{attempt}"));
            if fs::rename(&path, &grave).is_ok() {
                if fs::read_to_string(&grave).ok().as_ref() != Some(&existing) {
                    let _ = fs::hard_link(&grave, &path);
                }
                let _ = fs::remove_file(&grave);
            }
        }
        Err(StoreError::io(
            format!("acquire lockfile {}", path.display()),
            std::io::Error::other("lockfile kept changing hands; giving up after 16 attempts"),
        ))
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Only remove a lock we still own: if the content changed, a later
        // process reclaimed it (we must have been declared dead — do not
        // steal its lock back).
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
        // Seed a dead lock, then race many threads to reclaim it. The
        // rename-aside arbiter must let exactly one through; the rest see
        // the winner's live PID and report Locked.
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
        // The winner's lockfile carries this process's PID and no grave
        // files linger from the rename-aside step.
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
        // Repeated stale→reclaim cycles never accumulate grave files.
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
        // Simulate another process having reclaimed the lock.
        fs::write(dir.join(LOCK_FILE), "999999999\n").unwrap();
        drop(lock);
        assert!(dir.join(LOCK_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
