//! Lease records: short-lived, per-cell ownership claims used by the
//! distributed grid runner to shard work across processes.
//!
//! A lease is one small file under `<store root>/leases/` holding a
//! single JSON line:
//!
//! ```text
//! {"schema":1,"cell":"c4;w8","owner":"w0","deadline_ms":1733412345678,"renewals":2}
//! ```
//!
//! Claims rely on the filesystem for mutual exclusion: creating the file
//! with `create_new` is the atomic "acquire", and stealing an expired
//! lease goes through a write-to-temp + rename so a reader never sees a
//! half-written record. The deadline is wall-clock milliseconds since the
//! Unix epoch; a holder that wants to keep a long-running cell must
//! [`Lease::renew`] before its deadline passes, otherwise any other
//! process may steal the cell. This makes worker death safe by
//! construction — an exited or SIGKILLed worker simply stops renewing,
//! its deadline lapses, and the coordinator re-issues the cell.
//!
//! Leases carry no result data. Results travel through the
//! content-addressed store; a lease only answers "who is (supposed to be)
//! computing this cell right now".

use crate::codec::fnv1a64;
use crate::error::{Error, Result};
use crate::store::{json_str_field, json_u32_field, Store};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// On-disk schema revision for lease records.
pub const LEASE_SCHEMA: u32 = 1;

/// Outcome of a [`LeaseBoard::claim`] attempt.
#[derive(Debug)]
pub enum Claim {
    /// The cell was free (or never leased); the caller now holds it.
    Acquired(Lease),
    /// A previous holder's deadline had lapsed; the caller stole the
    /// cell. Distinguished from `Acquired` so observability can count
    /// recovered cells separately.
    Stolen(Lease),
    /// Someone else holds a live lease on the cell.
    Held {
        /// Owner id recorded in the live lease.
        owner: String,
        /// Deadline (ms since the Unix epoch) at which it lapses.
        deadline_ms: u64,
    },
}

/// A held lease on one cell. Dropping a `Lease` does **not** release it —
/// call [`Lease::release`] explicitly (an unreleased lease simply expires
/// at its deadline, which is the crash-safe default).
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    cell: String,
    owner: String,
    renewals: u32,
    deadline_ms: u64,
}

impl Lease {
    /// The cell id this lease covers.
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// The owner id recorded in the lease.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// How many times the lease has been renewed since it was claimed.
    pub fn renewals(&self) -> u32 {
        self.renewals
    }

    /// Deadline in milliseconds since the Unix epoch.
    pub fn deadline_ms(&self) -> u64 {
        self.deadline_ms
    }

    /// Extends the deadline by `ttl` from now and bumps the renewal
    /// count. Best-effort durable: the record is rewritten atomically,
    /// but a failure only shortens the effective lease (safe direction).
    pub fn renew(&mut self, ttl: Duration) -> Result<()> {
        self.renewals += 1;
        self.deadline_ms = deadline_after(ttl);
        write_lease_file(
            &self.path,
            &self.cell,
            &self.owner,
            self.deadline_ms,
            self.renewals,
        )
    }

    /// Removes the lease record. Idempotent: releasing a lease that was
    /// already stolen or cleaned up is not an error.
    pub fn release(self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Per-grid lease directory rooted inside a [`Store`]. Cheap to clone;
/// all methods are safe to call from many threads and processes sharing
/// the store (mutual exclusion comes from atomic file operations, not
/// in-process locks).
#[derive(Debug, Clone)]
pub struct LeaseBoard {
    dir: PathBuf,
    prefix: String,
}

impl LeaseBoard {
    /// Opens (creating if needed) the lease board for one experiment
    /// grid. `grid` is a short filesystem-safe tag (e.g. `"fig3"`) and
    /// `spec` the canonical input-spec string, so different scales or
    /// configs never contend on each other's lease files.
    pub fn open(store: &Store, grid: &str, spec: &str) -> Result<Self> {
        let dir = store.root().join("leases");
        fs::create_dir_all(&dir)
            .map_err(|e| Error::Io(format!("create {}: {e}", dir.display())))?;
        Ok(LeaseBoard {
            dir,
            prefix: format!("{grid}-{:016x}", fnv1a64(spec.as_bytes())),
        })
    }

    fn lease_path(&self, cell: &str) -> PathBuf {
        self.dir.join(format!(
            "{}-{:016x}.lease",
            self.prefix,
            fnv1a64(cell.as_bytes())
        ))
    }

    /// Attempts to claim `cell` for `owner` with a deadline `ttl` from
    /// now. Free cells are acquired; cells whose holder's deadline has
    /// lapsed are stolen; live leases are reported as [`Claim::Held`].
    pub fn claim(&self, cell: &str, owner: &str, ttl: Duration) -> Result<Claim> {
        let path = self.lease_path(cell);
        let deadline_ms = deadline_after(ttl);
        let line = lease_line(cell, owner, deadline_ms, 0);
        // Fast path: the file doesn't exist and we create it atomically.
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                f.write_all(line.as_bytes())
                    .and_then(|_| f.sync_data())
                    .map_err(|e| Error::Io(format!("write {}: {e}", path.display())))?;
                return Ok(Claim::Acquired(Lease {
                    path,
                    cell: cell.to_owned(),
                    owner: owner.to_owned(),
                    renewals: 0,
                    deadline_ms,
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(Error::Io(format!("claim {}: {e}", path.display()))),
        }
        // Slow path: inspect the existing record.
        match read_lease_file(&path) {
            Some((_, holder, holder_deadline, _)) if holder_deadline > now_ms() => {
                Ok(Claim::Held {
                    owner: holder,
                    deadline_ms: holder_deadline,
                })
            }
            // Expired (or unreadable/torn — treat like expired: the
            // holder can't prove liveness through a corrupt record).
            _ => {
                write_lease_file(&path, cell, owner, deadline_ms, 0)?;
                Ok(Claim::Stolen(Lease {
                    path,
                    cell: cell.to_owned(),
                    owner: owner.to_owned(),
                    renewals: 0,
                    deadline_ms,
                }))
            }
        }
    }

    /// Reads the current holder of `cell`, if any lease file exists
    /// (live or expired). Diagnostic only — never used for exclusion.
    pub fn holder(&self, cell: &str) -> Option<(String, u64, u32)> {
        read_lease_file(&self.lease_path(cell))
            .map(|(_, owner, deadline, renewals)| (owner, deadline, renewals))
    }

    /// Removes every lease file belonging to this grid. Called by the
    /// coordinator after a successful merge so finished runs leave no
    /// residue behind.
    pub fn clear(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if name.to_string_lossy().starts_with(&self.prefix) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn deadline_after(ttl: Duration) -> u64 {
    now_ms().saturating_add(ttl.as_millis() as u64)
}

fn lease_line(cell: &str, owner: &str, deadline_ms: u64, renewals: u32) -> String {
    // Cell ids may contain anything except quotes/backslashes/newlines
    // (grid cell ids are ASCII identifiers with `;`/`=` separators);
    // owners are caller-chosen short tokens. Keep the record one line so
    // a torn write is detectable as "no trailing newline".
    debug_assert!(!cell.contains(['"', '\\', '\n']));
    debug_assert!(!owner.contains(['"', '\\', '\n']));
    format!(
        "{{\"schema\":{LEASE_SCHEMA},\"cell\":\"{cell}\",\"owner\":\"{owner}\",\"deadline_ms\":{deadline_ms},\"renewals\":{renewals}}}\n"
    )
}

/// Atomically replaces the lease record (temp + rename) — used both for
/// renewals by the holder and steals by a new owner.
fn write_lease_file(
    path: &Path,
    cell: &str,
    owner: &str,
    deadline_ms: u64,
    renewals: u32,
) -> Result<()> {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(lease_line(cell, owner, deadline_ms, renewals).as_bytes())?;
        f.sync_data()?;
        fs::rename(&tmp, path)
    };
    write().map_err(|e| {
        let _ = fs::remove_file(&tmp);
        Error::Io(format!("write lease {}: {e}", path.display()))
    })
}

/// Parses a lease file into (cell, owner, deadline_ms, renewals).
/// Returns `None` for missing, torn, or foreign-schema records.
fn read_lease_file(path: &Path) -> Option<(String, String, u64, u32)> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.strip_suffix('\n')?;
    if json_u32_field(line, "schema")? > LEASE_SCHEMA {
        return None;
    }
    let cell = json_str_field(line, "cell")?.to_owned();
    let owner = json_str_field(line, "owner")?.to_owned();
    let deadline = json_u64_field(line, "deadline_ms")?;
    let renewals = json_u32_field(line, "renewals")?;
    Some((cell, owner, deadline, renewals))
}

/// u64 variant of the flat-JSON field helper (deadlines overflow u32).
fn json_u64_field(json: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_board(tag: &str) -> (Store, LeaseBoard) {
        let dir = std::env::temp_dir().join(format!(
            "mps-lease-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(dir).unwrap();
        let board = LeaseBoard::open(&store, "fig3", "tl=1000").unwrap();
        (store, board)
    }

    #[test]
    fn claim_then_contend_then_release() {
        let (_s, board) = tmp_board("basic");
        let ttl = Duration::from_secs(60);
        let lease = match board.claim("c4;w8", "w0", ttl).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("expected Acquired, got {other:?}"),
        };
        assert_eq!(lease.owner(), "w0");
        assert_eq!(lease.renewals(), 0);
        // Second claimant sees a live lease.
        match board.claim("c4;w8", "w1", ttl).unwrap() {
            Claim::Held { owner, .. } => assert_eq!(owner, "w0"),
            other => panic!("expected Held, got {other:?}"),
        }
        // Released cells are immediately reclaimable.
        lease.release();
        assert!(matches!(
            board.claim("c4;w8", "w1", ttl).unwrap(),
            Claim::Acquired(_)
        ));
    }

    #[test]
    fn expired_lease_is_stolen() {
        let (_s, board) = tmp_board("steal");
        let l = match board.claim("c2;w4", "dead", Duration::ZERO).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("expected Acquired, got {other:?}"),
        };
        // Deadline was "now"; any later claim steals.
        std::thread::sleep(Duration::from_millis(5));
        match board
            .claim("c2;w4", "alive", Duration::from_secs(60))
            .unwrap()
        {
            Claim::Stolen(stolen) => assert_eq!(stolen.owner(), "alive"),
            other => panic!("expected Stolen, got {other:?}"),
        }
        drop(l); // dropping must NOT release: the thief's record stays
        let (owner, _, _) = board.holder("c2;w4").unwrap();
        assert_eq!(owner, "alive");
    }

    #[test]
    fn renew_extends_deadline_and_counts() {
        let (_s, board) = tmp_board("renew");
        let mut l = match board.claim("x", "w0", Duration::from_secs(1)).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("expected Acquired, got {other:?}"),
        };
        let before = l.deadline_ms();
        l.renew(Duration::from_secs(120)).unwrap();
        assert!(l.deadline_ms() >= before);
        assert_eq!(l.renewals(), 1);
        let (_, deadline, renewals) = board.holder("x").unwrap();
        assert_eq!(deadline, l.deadline_ms());
        assert_eq!(renewals, 1);
    }

    #[test]
    fn torn_record_is_treated_as_expired() {
        let (_s, board) = tmp_board("torn");
        let path = board.lease_path("y");
        fs::write(&path, b"{\"schema\":1,\"cell\":\"y\",\"ow").unwrap();
        assert!(matches!(
            board.claim("y", "w0", Duration::from_secs(60)).unwrap(),
            Claim::Stolen(_)
        ));
    }

    #[test]
    fn distinct_grids_do_not_contend() {
        let (store, a) = tmp_board("grids");
        let b = LeaseBoard::open(&store, "fig6", "tl=1000").unwrap();
        let ttl = Duration::from_secs(60);
        assert!(matches!(
            a.claim("w", "w0", ttl).unwrap(),
            Claim::Acquired(_)
        ));
        assert!(matches!(
            b.claim("w", "w1", ttl).unwrap(),
            Claim::Acquired(_)
        ));
        a.clear();
        // `a`'s clear must not disturb `b`'s lease.
        assert!(matches!(
            a.claim("w", "w2", ttl).unwrap(),
            Claim::Acquired(_)
        ));
        match b.claim("w", "w2", ttl).unwrap() {
            Claim::Held { owner, .. } => assert_eq!(owner, "w1"),
            other => panic!("expected Held, got {other:?}"),
        }
    }
}
