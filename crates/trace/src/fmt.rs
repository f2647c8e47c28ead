//! The native line-oriented trace format.
//!
//! One event per line, tab-separated:
//!
//! ```text
//! # m3-trace v1
//! <at>\t<dur>\t<pe|->\t<component>\t<kind>\t<field>...
//! ```
//!
//! The fields follow in the order the kind's entry in the one
//! [`EventKind`] declaration (`event_kinds!`) lists them, each written and
//! read by its `Column` codec: numbers and ids in decimal, a `bool` as
//! `r`/`w` (`Rw`) or `0`/`1` (`Flag`), nothing else. String fields escape
//! backslash, tab, and newline, so the format round-trips arbitrary task
//! names and marker text. The `m3-trace` CLI reads this format;
//! [`write_events`] and [`parse`] are exact inverses.

use std::fmt::{Display, Write as _};
use std::rc::Rc;

use m3_base::{Cycles, EpId, PeId};

use crate::{Component, Event, EventKind};

/// The header line identifying the format version.
pub const HEADER: &str = "# m3-trace v1";

/// How one field is written as a column and read back. Each field type is
/// its own codec; a `bool` field names one ([`Rw`] or [`Flag`]).
pub(crate) trait Column {
    /// The field's type.
    type Value;

    /// Appends `v`'s column text.
    fn put(v: &Self::Value, out: &mut String);

    /// Reads a column; `None` if `raw` is malformed.
    fn take(raw: &str) -> Option<Self::Value>;
}

macro_rules! number_columns {
    ($($ty:ty: $raw:ty, $to:expr, $from:expr;)*) => {
        $(impl Column for $ty {
            type Value = $ty;

            fn put(v: &$ty, out: &mut String) {
                let _ = write!(out, "{}", $to(*v));
            }

            fn take(raw: &str) -> Option<$ty> {
                raw.parse::<$raw>().ok().map($from)
            }
        })*
    };
}

number_columns! {
    u64: u64, |v| v, |v| v;
    u32: u32, |v| v, |v| v;
    Cycles: u64, Cycles::as_u64, Cycles::new;
    PeId: u32, PeId::raw, PeId::new;
    EpId: u32, EpId::raw, EpId::new;
}

/// A string column: backslash, tab and newline are escaped.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

macro_rules! string_columns {
    ($($ty:ty),*) => {
        $(impl Column for $ty {
            type Value = $ty;

            fn put(v: &$ty, out: &mut String) {
                escape(v, out);
            }

            fn take(raw: &str) -> Option<$ty> {
                Some(unescape(raw).into())
            }
        })*
    };
}

string_columns!(String, Rc<str>);

/// An optional column: `-` for `None`.
impl<C: Column> Column for Option<C> {
    type Value = Option<C::Value>;

    fn put(v: &Self::Value, out: &mut String) {
        match v {
            Some(v) => C::put(v, out),
            None => out.push('-'),
        }
    }

    fn take(raw: &str) -> Option<Self::Value> {
        match raw {
            "-" => Some(None),
            raw => C::take(raw).map(Some),
        }
    }
}

/// A `bool` column written as one character: `T` for true, `F` for false.
/// Any other text is malformed.
pub(crate) struct Bool<const T: char, const F: char>;

/// A transfer's direction: `w` for a write, `r` for a read.
pub(crate) type Rw = Bool<'w', 'r'>;

/// A yes/no flag: `1` or `0`.
pub(crate) type Flag = Bool<'1', '0'>;

impl<const T: char, const F: char> Column for Bool<T, F> {
    type Value = bool;

    fn put(v: &bool, out: &mut String) {
        out.push(if *v { T } else { F });
    }

    fn take(raw: &str) -> Option<bool> {
        let mut chars = raw.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) if c == T => Some(true),
            (Some(c), None) if c == F => Some(false),
            _ => None,
        }
    }
}

/// Declares [`EventKind`] once: each variant with its docs, its tag and
/// its fields, in column order. A `bool` field names its codec with
/// `as Rw` or `as Flag`; every other field is its own [`Column`]. The
/// macro generates the enum, `tag()`, and the field writer and parser
/// behind [`to_line`] and [`parse_line`].
macro_rules! event_kinds {
    (@codec $ty:ty) => { $ty };
    (@codec $ty:ty as $codec:ty) => { $codec };
    (
        $(#[$meta:meta])*
        pub enum $Name:ident {
            $(
                $(#[$vmeta:meta])*
                $Variant:ident $tag:literal {
                    $($(#[$fmeta:meta])* $f:ident: $fty:ty $(as $codec:ty)?),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $Name {
            $($(#[$vmeta])* $Variant { $($(#[$fmeta])* $f: $fty),* },)*
        }

        impl $Name {
            /// Stable snake-case tag, used by the native format and summaries.
            pub fn tag(&self) -> &'static str {
                match self {
                    $(Self::$Variant { .. } => $tag,)*
                }
            }

            /// Appends each field as a tab-led column.
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(Self::$Variant { $($f),* } => {
                        $(
                            out.push('\t');
                            <$crate::fmt::event_kinds!(@codec $fty $(as $codec)?)
                                as $crate::fmt::Column>::put($f, out);
                        )*
                    })*
                }
            }

            /// Reads the fields of the kind tagged `tag`.
            fn parse_fields(tag: &str, cols: &mut $crate::fmt::Cols<'_>) -> Result<Self, String> {
                Ok(match tag {
                    $($tag => Self::$Variant {
                        $($f: cols.next::<$crate::fmt::event_kinds!(@codec $fty $(as $codec)?)>(
                            stringify!($f),
                        )?),*
                    },)*
                    other => return Err(cols.error(format_args!("unknown event kind {other:?}"))),
                })
            }
        }
    };
}

pub(crate) use event_kinds;

/// Serializes one event to its line (without trailing newline).
pub fn to_line(event: &Event) -> String {
    let mut out = format!("{}\t{}\t", event.at.as_u64(), event.dur.as_u64());
    Option::<PeId>::put(&event.pe, &mut out);
    let _ = write!(out, "\t{}\t{}", event.comp.name(), event.kind.tag());
    event.kind.write_fields(&mut out);
    out
}

/// Serializes a whole trace, header included.
pub fn write_events(events: &[Event]) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for event in events {
        out.push_str(&to_line(event));
        out.push('\n');
    }
    out
}

/// The columns of one line, read left to right.
pub(crate) struct Cols<'a> {
    cols: std::str::Split<'a, char>,
    line_no: usize,
}

impl<'a> Cols<'a> {
    /// An error on this line.
    pub(crate) fn error(&self, msg: impl Display) -> String {
        format!("line {}: {msg}", self.line_no)
    }

    fn raw(&mut self, what: &str) -> Result<&'a str, String> {
        self.cols
            .next()
            .ok_or_else(|| self.error(format_args!("missing {what}")))
    }

    /// Reads the next column, named `what` in errors, with codec `C`.
    pub(crate) fn next<C: Column>(&mut self, what: &str) -> Result<C::Value, String> {
        let raw = self.raw(what)?;
        C::take(raw).ok_or_else(|| self.error(format_args!("bad {what} {raw:?}")))
    }
}

/// Parses one line into an event.
///
/// # Errors
///
/// Describes the first missing, malformed or extra column, with the given
/// line number.
pub fn parse_line(line: &str, line_no: usize) -> Result<Event, String> {
    let mut cols = Cols {
        cols: line.split('\t'),
        line_no,
    };
    let at = cols.next::<Cycles>("at")?;
    let dur = cols.next::<Cycles>("dur")?;
    let pe = cols.next::<Option<PeId>>("pe")?;
    let comp = cols.raw("component")?;
    let comp = Component::parse(comp)
        .ok_or_else(|| cols.error(format_args!("unknown component {comp:?}")))?;
    let kind = EventKind::parse_fields(cols.raw("kind")?, &mut cols)?;
    if let Some(extra) = cols.cols.next() {
        return Err(cols.error(format_args!("extra column {extra:?}")));
    }
    Ok(Event {
        at,
        dur,
        pe,
        comp,
        kind,
    })
}

/// Parses a whole trace file (header line optional, blank lines and `#`
/// comments skipped).
///
/// # Errors
///
/// Describes the first malformed line.
pub fn parse(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_end_matches('\r');
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        events.push(parse_line(trimmed, idx + 1)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                at: Cycles::new(0),
                dur: Cycles::ZERO,
                pe: None,
                comp: Component::Sched,
                kind: EventKind::TaskSpawn {
                    name: "tab\tand\\slash".into(),
                    daemon: true,
                },
            },
            Event {
                at: Cycles::new(10),
                dur: Cycles::new(42),
                pe: Some(PeId::new(3)),
                comp: Component::Dtu,
                kind: EventKind::MsgSend {
                    ep: EpId::new(1),
                    dst_pe: PeId::new(0),
                    dst_ep: EpId::new(2),
                    bytes: 128,
                },
            },
            Event {
                at: Cycles::new(11),
                dur: Cycles::new(7),
                pe: Some(PeId::new(0)),
                comp: Component::Noc,
                kind: EventKind::NocXfer {
                    src: PeId::new(0),
                    dst: PeId::new(3),
                    bytes: 128,
                    hops: 2,
                    waited: Cycles::new(1),
                },
            },
            Event {
                at: Cycles::new(20),
                dur: Cycles::ZERO,
                pe: Some(PeId::new(0)),
                comp: Component::Kernel,
                kind: EventKind::Syscall {
                    opcode: "Noop".to_string(),
                },
            },
            Event {
                at: Cycles::new(30),
                dur: Cycles::new(5),
                pe: Some(PeId::new(2)),
                comp: Component::Fs,
                kind: EventKind::FsRequest {
                    op: "Open".to_string(),
                },
            },
            Event {
                at: Cycles::new(40),
                dur: Cycles::ZERO,
                pe: Some(PeId::new(1)),
                comp: Component::Pipe,
                kind: EventKind::PipeXfer {
                    write: false,
                    bytes: 4096,
                },
            },
            Event {
                at: Cycles::new(50),
                dur: Cycles::ZERO,
                pe: Some(PeId::new(4)),
                comp: Component::Noc,
                kind: EventKind::FaultInject {
                    fault: "msg\tdrop".to_string(),
                    target: PeId::new(4),
                },
            },
            Event {
                at: Cycles::new(60),
                dur: Cycles::new(512),
                pe: Some(PeId::new(1)),
                comp: Component::Kernel,
                kind: EventKind::Recovery {
                    action: "retry".to_string(),
                    attempt: 2,
                },
            },
            Event {
                at: Cycles::new(70),
                dur: Cycles::new(8192),
                pe: Some(PeId::new(3)),
                comp: Component::Kernel,
                kind: EventKind::CtxSwitch {
                    from: 4,
                    to: 5,
                    bytes: 65_536,
                },
            },
            Event {
                at: Cycles::new(80),
                dur: Cycles::new(23_000),
                pe: Some(PeId::new(2)),
                comp: Component::Serve,
                kind: EventKind::ServeReq {
                    client: 17,
                    op: "Get".to_string(),
                },
            },
            Event {
                at: Cycles::new(90),
                dur: Cycles::ZERO,
                pe: Some(PeId::new(0)),
                comp: Component::Kernel,
                kind: EventKind::ShardOp {
                    shard: 0,
                    peer: 2,
                    op: "place\tvpe".to_string(),
                },
            },
            Event {
                at: Cycles::new(100),
                dur: Cycles::new(150),
                pe: Some(PeId::new(0)),
                comp: Component::Vm,
                kind: EventKind::PageFault {
                    virt: 0x3011,
                    write: true,
                },
            },
            Event {
                at: Cycles::new(110),
                dur: Cycles::new(512),
                pe: Some(PeId::new(0)),
                comp: Component::Vm,
                kind: EventKind::PageIn {
                    virt: 0x3000,
                    bytes: 4096,
                },
            },
            Event {
                at: Cycles::new(120),
                dur: Cycles::new(512),
                pe: Some(PeId::new(0)),
                comp: Component::Vm,
                kind: EventKind::WriteBack {
                    virt: 0x5000,
                    bytes: 4096,
                },
            },
            Event {
                at: Cycles::new(130),
                dur: Cycles::new(3),
                pe: None,
                comp: Component::Sched,
                kind: EventKind::TaskPoll {
                    name: "poll\nme".into(),
                },
            },
            Event {
                at: Cycles::new(131),
                dur: Cycles::ZERO,
                pe: None,
                comp: Component::Sched,
                kind: EventKind::TaskComplete { name: "".into() },
            },
            Event {
                at: Cycles::new(140),
                dur: Cycles::ZERO,
                pe: None,
                comp: Component::Sched,
                kind: EventKind::ClockAdvance {
                    from: Cycles::new(u64::MAX),
                },
            },
            Event {
                at: Cycles::new(150),
                dur: Cycles::new(40),
                pe: Some(PeId::new(2)),
                comp: Component::Dtu,
                kind: EventKind::MsgReply {
                    dst_pe: PeId::new(u32::MAX),
                    bytes: 64,
                },
            },
            Event {
                at: Cycles::new(160),
                dur: Cycles::ZERO,
                pe: Some(PeId::new(2)),
                comp: Component::Dtu,
                kind: EventKind::MsgDrop { ep: EpId::new(7) },
            },
            Event {
                at: Cycles::new(170),
                dur: Cycles::ZERO,
                pe: Some(PeId::new(2)),
                comp: Component::Dtu,
                kind: EventKind::CreditStall { ep: EpId::new(0) },
            },
            Event {
                at: Cycles::new(180),
                dur: Cycles::new(300),
                pe: Some(PeId::new(5)),
                comp: Component::Dtu,
                kind: EventKind::MemXfer {
                    write: true,
                    bytes: 2 << 20,
                },
            },
            Event {
                at: Cycles::new(190),
                dur: Cycles::ZERO,
                pe: Some(PeId::new(5)),
                comp: Component::App,
                kind: EventKind::AppMark {
                    what: "phase\\1".to_string(),
                },
            },
            Event {
                at: Cycles::new(200),
                dur: Cycles::new(1000),
                pe: None,
                comp: Component::Sched,
                kind: EventKind::IslandWindow {
                    island: 3,
                    advanced: Cycles::new(900),
                    waited: Cycles::new(100),
                },
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_every_event() {
        let events = sample_events();
        let tags: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags.len(), 23, "one sample per event kind: {tags:?}");
        let text = write_events(&events);
        assert!(text.starts_with(HEADER));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn escaping_roundtrips_awkward_strings() {
        for s in ["plain", "a\tb", "a\\b", "a\nb", "\\t", ""] {
            let mut col = String::new();
            escape(s, &mut col);
            assert!(!col.contains(['\t', '\n']), "column {col:?}");
            assert_eq!(unescape(&col), s, "string {s:?}");
        }
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = parse("# header\n0\t0\t-\tsched\tnope").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse("0\t0\t-\tbogus\ttask_poll\tx").unwrap_err();
        assert!(err.contains("unknown component"), "{err}");
        let err = parse("\n\n0\t0\t-\tdtu\tmsg_drop\t-1").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        let err = parse("0\t0\t1\tdtu\tmsg_drop\t3\tstray").unwrap_err();
        assert!(err.starts_with("line 1: extra column"), "{err}");
        // A short line is an error, not a panic.
        for line in [
            "0",
            "0\t0\t-",
            "0\t0\t-\tsched",
            "0\t0\t-\tdtu\tmsg_send\t1\t2",
        ] {
            let err = parse_line(line, 9).unwrap_err();
            assert!(err.starts_with("line 9: missing"), "{line:?}: {err}");
        }
    }

    #[test]
    fn bool_columns_accept_only_their_two_spellings() {
        let spawn = |flag: &str| parse_line(&format!("0\t0\t-\tsched\ttask_spawn\tt\t{flag}"), 4);
        assert!(matches!(
            spawn("1").unwrap().kind,
            EventKind::TaskSpawn { daemon: true, .. }
        ));
        assert!(matches!(
            spawn("0").unwrap().kind,
            EventKind::TaskSpawn { daemon: false, .. }
        ));
        for bad in ["yes", "2", "", "10", "w"] {
            let err = spawn(bad).unwrap_err();
            assert!(err.starts_with("line 4:"), "{bad:?}: {err}");
        }
        let xfer = |rw: &str| parse_line(&format!("0\t0\t0\tdtu\tmem_xfer\t{rw}\t8"), 5);
        assert!(xfer("w").is_ok() && xfer("r").is_ok());
        for bad in ["W", "1", "rw", ""] {
            assert!(xfer(bad).unwrap_err().starts_with("line 5:"), "{bad:?}");
        }
    }
}
