//! Output checks. Each returns whether one op's output is right; the
//! workload records the verdict with `Tally::record`, so a wrong output
//! counts as a failed op instead of passing silently.

use m3_apps::sqlwork::PAGE_SIZE;
use m3_serve::{KvOp, KvReply, PAGES};

/// Ops attempted and failed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one op; a failed check counts it as failed.
    pub(crate) fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Length and FNV-1a hash of a file's expected content.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FileSig {
    pub len: usize,
    pub hash: u64,
}

impl FileSig {
    /// The signature of `bytes`.
    pub fn of(bytes: &[u8]) -> FileSig {
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        FileSig {
            len: bytes.len(),
            hash,
        }
    }
}

/// Whether bytes read back match the generator's signature.
pub(crate) fn file_ok(expect: &FileSig, got: &[u8]) -> bool {
    FileSig::of(got) == *expect
}

/// Whether a paged read returned the byte the shadow copy holds.
pub(crate) fn shadow_ok(shadow: &[u8], virt: u64, got: u8) -> bool {
    shadow.get(virt as usize) == Some(&got)
}

/// Whether a kv reply reports success and touched the bytes its request
/// must touch.
pub(crate) fn kv_ok(op: &KvOp, reply: &KvReply) -> bool {
    let bytes = match op {
        KvOp::Get { .. } | KvOp::Put { .. } => PAGE_SIZE as u64,
        KvOp::Scan => PAGES * PAGE_SIZE as u64,
    };
    reply.status == 0 && reply.bytes == bytes
}

/// Whether a find walk returned exactly the expected (sorted) paths.
pub(crate) fn find_ok(expect: &[String], got: &[String]) -> bool {
    expect == got
}

/// Whether the sqlite run selected every inserted row.
pub(crate) fn sqlite_ok(rows: usize) -> bool {
    rows == SQLITE_ROWS
}

/// Rows the sqlite workload inserts and selects (§5.6).
pub(crate) const SQLITE_ROWS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(ok: bool) -> Tally {
        let mut t = Tally::default();
        t.record(ok);
        t
    }

    #[test]
    fn bad_file_hash_is_a_failed_op() {
        let data = b"file content".to_vec();
        let good = FileSig::of(&data);
        let bad = FileSig {
            hash: good.hash ^ 1,
            ..good
        };
        assert_eq!(tally(file_ok(&good, &data)).failed, 0);
        assert_eq!(tally(file_ok(&bad, &data)).failed, 1);
        // A short read fails even if the prefix matches.
        assert_eq!(tally(file_ok(&good, &data[1..])).failed, 1);
    }

    #[test]
    fn bad_shadow_byte_is_a_failed_op() {
        let shadow = vec![0u8, 7, 0];
        assert_eq!(tally(shadow_ok(&shadow, 1, 7)).failed, 0);
        assert_eq!(tally(shadow_ok(&shadow, 1, 8)).failed, 1);
        assert_eq!(tally(shadow_ok(&shadow, 9, 0)).failed, 1);
    }

    #[test]
    fn nonzero_kv_status_is_a_failed_op() {
        let get = KvOp::Get { key: 1 };
        let ok = KvReply::ok(PAGE_SIZE as u64);
        assert_eq!(tally(kv_ok(&get, &ok)).failed, 0);
        assert_eq!(tally(kv_ok(&get, &KvReply::err())).failed, 1);
        let rejected = KvReply {
            status: 3,
            ..ok.clone()
        };
        assert_eq!(tally(kv_ok(&get, &rejected)).failed, 1);
        // A scan must touch the whole store, not one page.
        assert_eq!(tally(kv_ok(&KvOp::Scan, &ok)).failed, 1);
    }

    #[test]
    fn wrong_find_result_and_row_count_are_failed_ops() {
        let expect = vec!["/a.log".to_string()];
        assert_eq!(tally(find_ok(&expect, &expect)).failed, 0);
        assert_eq!(tally(find_ok(&expect, &[])).failed, 1);
        assert_eq!(tally(sqlite_ok(SQLITE_ROWS)).failed, 0);
        assert_eq!(tally(sqlite_ok(SQLITE_ROWS - 1)).failed, 1);
    }
}
