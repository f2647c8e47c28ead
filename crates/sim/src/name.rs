//! Task names that are formatted only when something displays them.

use std::fmt;
use std::rc::Rc;

/// The name of a spawned task, as it appears in trace events and stall
/// reports.
///
/// Hot paths spawn a task per event (one per DTU delivery, one per blocking
/// syscall), so a name is kept in its parts — a static prefix and up to two
/// numbers — and formatted only when a trace or a stall report shows it.
/// Names built any other way (a `String`) are interned once.
///
/// # Examples
///
/// ```
/// use m3_sim::TaskName;
///
/// assert_eq!(TaskName::numbered("dtu-deliver-", 7).to_string(), "dtu-deliver-7");
/// assert_eq!(TaskName::pair("ktk-wire-PE", 1, "-PE", 2).to_string(), "ktk-wire-PE1-PE2");
/// assert_eq!(TaskName::from("worker").to_string(), "worker");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskName(Repr);

#[derive(Clone, Debug, PartialEq, Eq)]
enum Repr {
    Static(&'static str),
    /// `{prefix}{n}`.
    Numbered(&'static str, u64),
    /// `{prefix}{a}{sep}{b}`.
    Pair(&'static str, u64, &'static str, u64),
    Interned(Rc<str>),
}

impl TaskName {
    /// A name that renders as `{prefix}{n}`.
    pub const fn numbered(prefix: &'static str, n: u64) -> TaskName {
        TaskName(Repr::Numbered(prefix, n))
    }

    /// A name that renders as `{prefix}{a}{sep}{b}`.
    pub const fn pair(prefix: &'static str, a: u64, sep: &'static str, b: u64) -> TaskName {
        TaskName(Repr::Pair(prefix, a, sep, b))
    }

    /// The rendered name as the shared string trace events carry.
    pub(crate) fn render(&self) -> Rc<str> {
        match &self.0 {
            Repr::Interned(s) => s.clone(),
            _ => Rc::from(self.to_string()),
        }
    }
}

impl fmt::Display for TaskName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Static(s) => f.write_str(s),
            Repr::Numbered(prefix, n) => write!(f, "{prefix}{n}"),
            Repr::Pair(prefix, a, sep, b) => write!(f, "{prefix}{a}{sep}{b}"),
            Repr::Interned(s) => f.write_str(s),
        }
    }
}

impl From<&'static str> for TaskName {
    fn from(name: &'static str) -> TaskName {
        TaskName(Repr::Static(name))
    }
}

impl From<String> for TaskName {
    fn from(name: String) -> TaskName {
        TaskName(Repr::Interned(Rc::from(name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_base::{PeId, VpeId};

    #[test]
    fn every_form_renders_like_the_format_it_replaces() {
        let (pe, vpe) = (PeId::new(12), VpeId::new(3));
        let cases = [
            (TaskName::from("m3fs"), "m3fs".to_string()),
            (
                TaskName::numbered("dtu-deliver-", 41),
                format!("dtu-deliver-{}", 41),
            ),
            (
                TaskName::numbered("kernel-wait-VPE", 3),
                format!("kernel-wait-{vpe}"),
            ),
            (
                TaskName::numbered("kernel-activate-VPE", 3),
                format!("kernel-activate-{vpe}"),
            ),
            (
                TaskName::numbered("kernel-ctxsw@PE", 12),
                format!("kernel-ctxsw@{pe}"),
            ),
            (
                TaskName::pair("ktk-wire-PE", 12, "-PE", 0),
                format!("ktk-wire-{}-{}", pe, PeId::new(0)),
            ),
            (TaskName::from(format!("w{}", 9)), "w9".to_string()),
        ];
        for (name, want) in cases {
            assert_eq!(name.to_string(), want);
            assert_eq!(&*name.render(), want);
        }
    }
}
