//! Workload generation: the file trees the benchmarks operate on.
//!
//! - tar/untar: "files between 60 and 500 KiB and 1.2 MiB in total" (§5.6),
//! - find: "a directory tree of 40 items" (§5.6).

use m3_base::rand::Rng;
use m3_fs::{SetupKind, SetupNode};
use m3_lx::LxMachine;

/// A neutral description of a file tree, convertible to both systems.
#[derive(Clone, Debug, Default)]
pub struct TreeSpec {
    /// Directories, in creation order (parents first).
    pub dirs: Vec<String>,
    /// Files with contents, under already-created directories.
    pub files: Vec<(String, Vec<u8>)>,
}

impl TreeSpec {
    /// Total content bytes.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|(_, c)| c.len() as u64).sum()
    }

    /// Number of nodes (dirs + files).
    pub fn item_count(&self) -> usize {
        self.dirs.len() + self.files.len()
    }

    /// Converts into m3fs boot-time setup nodes.
    pub fn to_setup(&self) -> Vec<SetupNode> {
        let mut out: Vec<SetupNode> = self.dirs.iter().map(|d| SetupNode::dir(d)).collect();
        out.extend(
            self.files
                .iter()
                .map(|(p, c)| SetupNode::file(p, c.clone())),
        );
        out
    }
}

/// Pre-populates a Linux machine's tmpfs with the nodes m3fs boots from
/// (no cycles charged; this is benchmark setup, not measurement). The
/// tmpfs has no extents, so a forced extent size has nothing to force.
///
/// # Panics
///
/// Panics if a node conflicts with existing content.
pub fn preload_lx(machine: &LxMachine, setup: &[SetupNode]) {
    let mut fs = machine.fs().borrow_mut();
    for node in setup {
        match &node.kind {
            SetupKind::Dir => {
                fs.mkdir(&node.path).expect("preload dir");
            }
            SetupKind::File { content, .. } => {
                let ino = fs.create(&node.path).expect("preload file");
                fs.write(ino, 0, content).expect("preload content");
            }
        }
    }
}

/// Deterministic pseudo-random file content (compressible-ish text mix).
pub fn file_content(seed: u64, size: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = vec![0u8; size];
    rng.fill_bytes(&mut out);
    // Bias towards ASCII letters so `tr a->b` has work to do.
    for b in &mut out {
        *b = b'a' + (*b % 26);
    }
    out
}

/// The tar/untar input: files of 60–500 KiB totalling ≈ 1.2 MiB (§5.6).
pub fn tar_input(seed: u64) -> TreeSpec {
    let mut rng = Rng::new(seed);
    let mut spec = TreeSpec {
        dirs: vec!["/src".to_string()],
        files: Vec::new(),
    };
    let target = 1_200 * 1024u64;
    let mut total = 0u64;
    let mut idx = 0;
    while total < target {
        let mut size = rng.next_range(60 * 1024, 500 * 1024);
        if target - total < 60 * 1024 {
            break;
        }
        size = size.min(target - total);
        spec.files.push((
            format!("/src/file{idx}.dat"),
            file_content(seed.wrapping_add(idx), size as usize),
        ));
        total += size;
        idx += 1;
    }
    spec
}

/// The find input: a directory tree of 40 items (§5.6), with a few entries
/// matching the search pattern `log`.
pub fn find_tree(seed: u64) -> TreeSpec {
    let mut rng = Rng::new(seed);
    let mut spec = TreeSpec::default();
    let mut items = 0;
    let mut dir_paths = vec![String::new()]; // "" = root
                                             // Create 8 directories spread over the tree.
    for d in 0..8 {
        let parent = dir_paths[rng.next_below(dir_paths.len() as u64) as usize].clone();
        let path = format!("{parent}/dir{d}");
        spec.dirs.push(path.clone());
        dir_paths.push(path);
        items += 1;
    }
    // Fill with small files until 40 items.
    let mut f = 0;
    while items < 40 {
        let parent = dir_paths[rng.next_below(dir_paths.len() as u64) as usize].clone();
        let name = if f % 5 == 0 {
            format!("{parent}/trace{f}.log")
        } else {
            format!("{parent}/data{f}.bin")
        };
        spec.files.push((name, file_content(seed + 1000 + f, 256)));
        items += 1;
        f += 1;
    }
    spec
}

/// The cat+tr input: one 64 KiB file (§5.6).
pub fn cat_tr_input(seed: u64) -> TreeSpec {
    TreeSpec {
        dirs: Vec::new(),
        files: vec![("/input.txt".to_string(), file_content(seed, 64 * 1024))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tar_input_matches_paper_parameters() {
        let spec = tar_input(42);
        let total = spec.total_bytes();
        assert!(
            (1_100 * 1024..=1_200 * 1024).contains(&total),
            "total {total}"
        );
        for (path, content) in &spec.files {
            assert!(path.starts_with("/src/"));
            assert!(
                content.len() <= 500 * 1024,
                "file too large: {}",
                content.len()
            );
        }
        assert!(spec.files.len() >= 3);
    }

    #[test]
    fn find_tree_has_40_items() {
        let spec = find_tree(7);
        assert_eq!(spec.item_count(), 40);
        let matches = spec
            .files
            .iter()
            .filter(|(p, _)| p.ends_with(".log"))
            .count();
        assert!(matches >= 3, "need some hits for find");
    }

    #[test]
    fn trees_are_deterministic() {
        assert_eq!(tar_input(1).total_bytes(), tar_input(1).total_bytes());
        assert_eq!(find_tree(2).dirs, find_tree(2).dirs);
    }

    #[test]
    fn dirs_come_before_their_files() {
        let spec = find_tree(3);
        // Every file's parent dir must appear in dirs (or be root).
        for (path, _) in &spec.files {
            let parent = &path[..path.rfind('/').unwrap()];
            assert!(
                parent.is_empty() || spec.dirs.iter().any(|d| d == parent),
                "missing parent {parent}"
            );
        }
    }

    #[test]
    fn content_is_lowercase_letters() {
        let c = file_content(5, 1000);
        assert!(c.iter().all(|&b| b.is_ascii_lowercase()));
        assert!(c.contains(&b'a'), "tr needs 'a's to replace");
    }

    #[test]
    fn preload_lx_builds_the_tree() {
        let sim = m3_sim::Sim::new();
        let machine = LxMachine::new(&sim, m3_lx::LxConfig::xtensa());
        let spec = find_tree(9);
        preload_lx(&machine, &spec.to_setup());
        let fs = machine.fs().borrow();
        for d in &spec.dirs {
            assert!(fs.resolve(d).is_ok(), "missing dir {d}");
        }
        for (p, c) in &spec.files {
            let ino = fs.resolve(p).unwrap();
            assert_eq!(fs.size(ino), c.len() as u64);
        }
    }
}
