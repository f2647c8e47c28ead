//! Wire-format pins: the exact bytes of every DTU message type.
//!
//! A message's byte length sets its NoC transfer time (§4.5.3, §5.3), so
//! the encodings are part of the timing model, not an implementation
//! detail. This suite pins, in hex, the encoding of one value of every
//! variant of every system-call, kernel-to-kernel, m3fs and kv message,
//! checks that each pinned encoding decodes back to its value, and pins
//! the error code a decoder returns for an unknown tag, an empty buffer
//! and an over-long capability list. Seeded properties then check every
//! codec on random values and random bytes.

use std::fmt::Debug;

use m3_base::error::{Code, Result};
use m3_base::marshal::{self, Wire};
use m3_base::rand::Rng;
use m3_base::{EpId, Perm, SelId};
use m3_fs::proto::{LocateArgs, LocateReply, MetaReply, MetaRequest};
use m3_kernel::ktk::{CapDesc, KtkMsg, KtkReply};
use m3_kernel::protocol::{
    PeRequest, ServiceReply, ServiceRequest, Syscall, SyscallReply, MAX_EXCHANGE_CAPS,
};
use m3_platform::PeType;
use m3_serve::{KvOp, KvReply};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Asserts that `bytes` are `want` in hex.
fn pinned(bytes: &[u8], want: &str) {
    assert_eq!(hex(bytes), want);
}

/// Asserts that `value` encodes to `want` and that `want` decodes back.
fn pin<T: PartialEq + Debug, B: AsRef<[u8]>>(
    value: T,
    encode: impl Fn(&T) -> B,
    decode: impl Fn(&[u8]) -> Result<T>,
    want: &str,
) {
    pinned(encode(&value).as_ref(), want);
    assert_eq!(decode(&unhex(want)).unwrap(), value, "decoding of {want}");
}

fn code<T: Debug>(r: Result<T>) -> Code {
    r.unwrap_err().code()
}

fn syscall(call: Syscall, want: &str) {
    pin(call, Syscall::to_bytes, Syscall::from_bytes, want);
}

/// Every ktk message is pinned with shard 3 announcing 17 free PEs.
fn ktk_bytes(msg: &KtkMsg) -> Vec<u8> {
    msg.to_bytes(3, 17)
}

fn ktk_decode(bytes: &[u8]) -> Result<KtkMsg> {
    let (src, free, msg) = KtkMsg::from_bytes(bytes)?;
    assert_eq!((src, free), (3, 17));
    Ok(msg)
}

fn ktk(msg: KtkMsg, want: &str) {
    pin(msg, ktk_bytes, ktk_decode, want);
}

fn mem_desc(pe: u32) -> CapDesc {
    CapDesc::Mem {
        pe,
        offset: 0x4000,
        size: 8192,
        perm: Perm::RW,
    }
}

fn sgate_desc() -> CapDesc {
    CapDesc::SGate {
        pe: 2,
        ep: 3,
        label: 0xfeed,
        credits: 4,
        max_payload: 488,
    }
}

#[test]
fn syscall_encodings_are_pinned() {
    syscall(Syscall::Noop, "00000000");
    syscall(
        Syscall::CreateRGate {
            dst: SelId::new(3),
            slots: 8,
            slot_size: 512,
        },
        "01000000030000000800000000020000",
    );
    syscall(
        Syscall::CreateSGate {
            dst: SelId::new(4),
            rgate: SelId::new(3),
            label: 0xdead,
            credits: 2,
        },
        "020000000400000003000000adde00000000000002000000",
    );
    syscall(
        Syscall::AllocMem {
            dst: SelId::new(5),
            size: 1 << 20,
            perm: Perm::RW,
        },
        "0300000005000000000010000000000003",
    );
    syscall(
        Syscall::DeriveMem {
            dst: SelId::new(6),
            src: SelId::new(5),
            offset: 4096,
            size: 8192,
            perm: Perm::R,
        },
        "0400000006000000050000000010000000000000002000000000000001",
    );
    syscall(
        Syscall::CreateVpe {
            dst: SelId::new(7),
            mem_dst: SelId::new(8),
            pe: PeRequest::Any,
            name: "w".to_string(),
        },
        "050000000700000008000000000100000077",
    );
    syscall(
        Syscall::CreateVpe {
            dst: SelId::new(7),
            mem_dst: SelId::new(8),
            pe: PeRequest::Type(PeType::FftAccel),
            name: "fft".to_string(),
        },
        "050000000700000008000000010203000000666674",
    );
    syscall(
        Syscall::CreateVpe {
            dst: SelId::new(7),
            mem_dst: SelId::new(8),
            pe: PeRequest::Same,
            name: String::new(),
        },
        "0500000007000000080000000200000000",
    );
    syscall(Syscall::VpeStart { vpe: SelId::new(7) }, "0600000007000000");
    syscall(Syscall::VpeWait { vpe: SelId::new(7) }, "0700000007000000");
    syscall(
        Syscall::Activate {
            vpe: SelId::new(0),
            ep: EpId::new(3),
            gate: SelId::new(4),
        },
        "08000000000000000300000004000000",
    );
    syscall(
        Syscall::CreateSrv {
            dst: SelId::new(9),
            rgate: SelId::new(3),
            name: "m3fs".to_string(),
        },
        "090000000900000003000000040000006d336673",
    );
    syscall(
        Syscall::OpenSess {
            dst: SelId::new(10),
            name: "m3fs".to_string(),
            arg: 1,
        },
        "0a0000000a000000040000006d3366730100000000000000",
    );
    syscall(
        Syscall::ExchangeSess {
            sess: SelId::new(10),
            obtain: true,
            caps: vec![SelId::new(11), SelId::new(12)],
            args: vec![1, 2, 3],
        },
        "0b0000000a00000001020000000b0000000c00000003000000010203",
    );
    syscall(
        Syscall::Exchange {
            vpe: SelId::new(7),
            own: SelId::new(4),
            other: SelId::new(2),
            obtain: false,
        },
        "0c00000007000000040000000200000000",
    );
    syscall(Syscall::Revoke { sel: SelId::new(4) }, "0d00000004000000");
    syscall(Syscall::Exit { code: -1 }, "0e000000ffffffffffffffff");
    syscall(
        Syscall::PageFault {
            dst: SelId::new(20),
            virt: 0x1000_2034,
            access: Perm::W,
        },
        "0f00000014000000342000100000000002",
    );
    syscall(
        Syscall::Unmap { virt: 0x1000_2000 },
        "100000000020001000000000",
    );
}

#[test]
fn syscall_decode_errors_are_pinned() {
    assert_eq!(code(Syscall::from_bytes(&[])), Code::BadMessage);
    assert_eq!(
        code(Syscall::from_bytes(&unhex("ffff0000"))),
        Code::BadMessage
    );
    // CreateVpe with an unknown PeRequest tag, then with an unknown PeType.
    assert_eq!(
        code(Syscall::from_bytes(&unhex("05000000070000000800000003"))),
        Code::BadMessage
    );
    assert_eq!(
        code(Syscall::from_bytes(&unhex("0500000007000000080000000103"))),
        Code::BadMessage
    );
    let too_many = Syscall::ExchangeSess {
        sess: SelId::new(1),
        obtain: true,
        caps: (0..5).map(SelId::new).collect(),
        args: vec![],
    };
    assert_eq!(
        code(Syscall::from_bytes(&too_many.to_bytes())),
        Code::BadMessage
    );
}

#[test]
fn syscall_and_meta_replies_are_pinned() {
    pin(
        SyscallReply::ok(),
        SyscallReply::to_bytes,
        SyscallReply::from_bytes,
        "0000000000000000",
    );
    pin(
        SyscallReply::ok_with(vec![9, 8]),
        SyscallReply::to_bytes,
        SyscallReply::from_bytes,
        "00000000020000000908",
    );
    pin(
        SyscallReply::err(Code::NoPerm),
        SyscallReply::to_bytes,
        SyscallReply::from_bytes,
        "0300000000000000",
    );
    assert_eq!(code(SyscallReply::from_bytes(&[])), Code::BadMessage);
    // An m3fs meta reply has the syscall reply's format.
    pinned(&MetaReply::ok().to_bytes(), "0000000000000000");
    pinned(
        &MetaReply::ok_with(vec![9, 8]).to_bytes(),
        "00000000020000000908",
    );
    pinned(
        &MetaReply::err(Code::NoSuchFile).to_bytes(),
        "0a00000000000000",
    );
}

#[test]
fn service_messages_are_pinned() {
    let req = |r, want| {
        pin(
            r,
            ServiceRequest::to_bytes,
            ServiceRequest::from_bytes,
            want,
        )
    };
    req(ServiceRequest::Open { arg: 42 }, "000000002a00000000000000");
    req(
        ServiceRequest::Exchange {
            ident: 7,
            obtain: true,
            cap_count: 2,
            args: vec![5, 6],
        },
        "0100000007000000000000000102000000020000000506",
    );
    req(
        ServiceRequest::Close { ident: 7 },
        "020000000700000000000000",
    );
    assert_eq!(code(ServiceRequest::from_bytes(&[])), Code::BadMessage);
    assert_eq!(
        code(ServiceRequest::from_bytes(&unhex("03000000"))),
        Code::BadMessage
    );

    let reply = |r, want| pin(r, ServiceReply::to_bytes, ServiceReply::from_bytes, want);
    reply(
        ServiceReply::ok(),
        "0000000000000000000000000000000000000000",
    );
    reply(
        ServiceReply {
            error: None,
            ident: 99,
            caps: vec![SelId::new(1), SelId::new(2)],
            args: vec![4, 2],
        },
        "000000006300000000000000020000000100000002000000020000000402",
    );
    reply(
        ServiceReply::err(Code::NoPerm),
        "0300000000000000000000000000000000000000",
    );
    assert_eq!(code(ServiceReply::from_bytes(&[])), Code::BadMessage);
    let too_many = ServiceReply {
        caps: (0..5).map(SelId::new).collect(),
        ..ServiceReply::ok()
    };
    assert_eq!(
        code(ServiceReply::from_bytes(&too_many.to_bytes())),
        Code::BadMessage
    );
}

#[test]
fn ktk_encodings_are_pinned() {
    ktk(KtkMsg::Hello, "030000001100000000000000");
    ktk(
        KtkMsg::PlaceVpe {
            req_id: 7,
            name: "worker".to_string(),
            want: PeRequest::Any,
        },
        "03000000110000000100000007000000000000000006000000776f726b6572",
    );
    ktk(
        KtkMsg::PlaceVpe {
            req_id: 8,
            name: "fft".to_string(),
            want: PeRequest::Type(PeType::Arm),
        },
        "0300000011000000010000000800000000000000010103000000666674",
    );
    ktk(
        KtkMsg::StartVpe { req_id: 9, vpe: 4 },
        "030000001100000002000000090000000000000004000000",
    );
    ktk(
        KtkMsg::WaitVpe { req_id: 10, vpe: 4 },
        "0300000011000000030000000a0000000000000004000000",
    );
    ktk(
        KtkMsg::RevokeVpe { vpe: 4 },
        "03000000110000000400000004000000",
    );
    ktk(
        KtkMsg::DelegateCap {
            req_id: 11,
            vpe: 4,
            sel: 16,
            desc: mem_desc(9),
        },
        "0300000011000000050000000b00000000000000040000001000000000090000000040000000000000002000000000000003",
    );
    ktk(
        KtkMsg::DelegateCap {
            req_id: 12,
            vpe: 4,
            sel: 17,
            desc: sgate_desc(),
        },
        "0300000011000000050000000c000000000000000400000011000000010200000003000000edfe00000000000004000000e8010000",
    );
    ktk(
        KtkMsg::RevokeCap { vpe: 4, sel: 16 },
        "0300000011000000060000000400000010000000",
    );
    ktk(
        KtkMsg::OpenSess {
            req_id: 13,
            name: "m3fs".to_string(),
            arg: 1,
        },
        "0300000011000000070000000d00000000000000040000006d3366730100000000000000",
    );
    ktk(
        KtkMsg::ExchangeSess {
            req_id: 14,
            serv: "m3fs".to_string(),
            ident: 42,
            obtain: true,
            cap_count: 1,
            descs: vec![mem_desc(1)],
            args: vec![1, 2, 3],
        },
        "0300000011000000080000000e00000000000000040000006d3366732a000000000000000101000000010000000001000000004000000000000000200000000000000303000000010203",
    );
    ktk(
        KtkMsg::Reply {
            req_id: 14,
            reply: KtkReply {
                code: None,
                a: 5,
                b: 6,
                caps: vec![sgate_desc()],
                args: vec![9],
            },
        },
        "0300000011000000090000000e00000000000000000000000500000000000000060000000000000001000000010200000003000000edfe00000000000004000000e80100000100000009",
    );
    ktk(
        KtkMsg::Reply {
            req_id: 15,
            reply: KtkReply::err(Code::NoFreePe),
        },
        "0300000011000000090000000f0000000000000007000000000000000000000000000000000000000000000000000000",
    );
}

#[test]
fn ktk_decode_errors_are_pinned() {
    assert_eq!(code(KtkMsg::from_bytes(&[])), Code::BadMessage);
    assert_eq!(
        code(KtkMsg::from_bytes(&unhex("03000000110000000a000000"))),
        Code::BadMessage
    );
    // DelegateCap with an unknown CapDesc tag.
    let bad_desc = "0300000011000000050000000b000000000000000400000010000000";
    assert_eq!(
        code(KtkMsg::from_bytes(&unhex(&format!("{bad_desc}02")))),
        Code::BadMessage
    );
    let descs = (0..5).map(mem_desc).collect::<Vec<_>>();
    let too_many = KtkMsg::ExchangeSess {
        req_id: 1,
        serv: "s".to_string(),
        ident: 0,
        obtain: false,
        cap_count: 5,
        descs: descs.clone(),
        args: vec![],
    };
    assert_eq!(
        code(KtkMsg::from_bytes(&ktk_bytes(&too_many))),
        Code::BadMessage
    );
    let too_many = KtkMsg::Reply {
        req_id: 1,
        reply: KtkReply {
            caps: descs,
            ..KtkReply::ok(0, 0)
        },
    };
    assert_eq!(
        code(KtkMsg::from_bytes(&ktk_bytes(&too_many))),
        Code::BadMessage
    );
}

#[test]
fn ktk_and_syscall_names_are_pinned() {
    let names: Vec<_> = [
        KtkMsg::Hello,
        KtkMsg::RevokeVpe { vpe: 1 },
        KtkMsg::RevokeCap { vpe: 1, sel: 2 },
    ]
    .iter()
    .map(KtkMsg::name)
    .collect();
    assert_eq!(names, ["hello", "revoke_vpe", "revoke_cap"]);
    assert_eq!(Syscall::Noop.name(), "Noop");
    assert_eq!(Syscall::Unmap { virt: 0 }.name(), "Unmap");
    assert_eq!(MetaRequest::Fsck.name(), "Fsck");
    assert_eq!(KvOp::Scan.name(), "Scan");
}

#[test]
fn m3fs_messages_are_pinned() {
    let meta = |r, want| pin(r, MetaRequest::to_bytes, MetaRequest::from_bytes, want);
    meta(
        MetaRequest::Open {
            path: "/a/b".into(),
            flags: 3,
        },
        "00040000002f612f6203000000",
    );
    meta(
        MetaRequest::Close { fd: 7, size: 4096 },
        "0107000000000000000010000000000000",
    );
    meta(MetaRequest::Stat { path: "/x".into() }, "02020000002f78");
    meta(MetaRequest::Mkdir { path: "/d".into() }, "03020000002f64");
    meta(MetaRequest::Rmdir { path: "/d".into() }, "04020000002f64");
    meta(MetaRequest::Unlink { path: "/f".into() }, "05020000002f66");
    meta(
        MetaRequest::Link {
            old: "/f".into(),
            new: "/g".into(),
        },
        "06020000002f66020000002f67",
    );
    meta(
        MetaRequest::ReadDir {
            path: "/d".into(),
            start: 16,
        },
        "07020000002f6410000000",
    );
    meta(MetaRequest::Fsck, "08");
    assert_eq!(code(MetaRequest::from_bytes(&[])), Code::BadMessage);
    assert_eq!(code(MetaRequest::from_bytes(&[9])), Code::BadMessage);

    let args = LocateArgs {
        fd: 3,
        offset: 1 << 20,
        write: true,
        want_blocks: 256,
    };
    pinned(
        &args.to_bytes(),
        "0103000000000000000000100000000000010001000000000000",
    );
    pin(
        LocateReply {
            ext_file_off: 4096,
            ext_bytes: 256 * 1024,
        },
        LocateReply::to_bytes,
        LocateReply::from_bytes,
        "00100000000000000000040000000000",
    );
    assert_eq!(code(LocateReply::from_bytes(&[])), Code::BadMessage);
}

#[test]
fn kv_messages_are_pinned() {
    let op = |o, want| pin(o, KvOp::to_bytes, KvOp::from_bytes, want);
    op(KvOp::Get { key: 3 }, "010300000000000000");
    op(KvOp::Put { key: 7, tag: 42 }, "0207000000000000002a000000");
    op(KvOp::Scan, "03");
    assert_eq!(code(KvOp::from_bytes(&[])), Code::BadMessage);
    assert_eq!(code(KvOp::from_bytes(&[0])), Code::BadMessage);
    assert_eq!(code(KvOp::from_bytes(&[4])), Code::BadMessage);

    let reply = |r, want| pin(r, KvReply::to_bytes, KvReply::from_bytes, want);
    reply(KvReply::ok(4096), "000010000000000000");
    reply(KvReply::err(), "010000000000000000");
    assert_eq!(code(KvReply::from_bytes(&[])), Code::BadMessage);
}

/// Random values of a wire type, for the decode properties below.
trait Arb: Sized {
    fn arb(r: &mut Rng) -> Self;
}

fn arb<T: Arb>(r: &mut Rng) -> T {
    T::arb(r)
}

/// Up to `max` random items.
fn list<T: Arb>(r: &mut Rng, max: usize) -> Vec<T> {
    (0..r.next_below(max as u64 + 1)).map(|_| arb(r)).collect()
}

macro_rules! arb_via {
    ($($ty:ty = |$r:ident| $e:expr;)*) => {
        $(impl Arb for $ty {
            fn arb($r: &mut Rng) -> Self {
                $e
            }
        })*
    };
}

arb_via! {
    u8 = |r| r.next_u64() as u8;
    u32 = |r| r.next_u64() as u32;
    u64 = |r| r.next_u64();
    i64 = |r| r.next_u64() as i64;
    bool = |r| r.next_below(2) == 1;
    String = |r| {
        let chars = ['m', '3', '/', 'é'];
        (0..r.next_below(6)).map(|_| chars[r.next_below(4) as usize]).collect()
    };
    Vec<u8> = |r| (0..r.next_below(12)).map(|_| arb(r)).collect();
    SelId = |r| SelId::new(arb(r));
    EpId = |r| EpId::new(arb(r));
    Perm = |r| Perm::from_bits(arb(r));
    Option<Code> = |r| (r.next_below(2) == 1).then(|| Code::from_raw(1 + r.next_below(25) as u32));
    PeType = |r| [PeType::Xtensa, PeType::Arm, PeType::FftAccel][r.next_below(3) as usize];
    PeRequest = |r| match r.next_below(3) {
        0 => PeRequest::Any,
        1 => PeRequest::Type(arb(r)),
        _ => PeRequest::Same,
    };
    CapDesc = |r| match r.next_below(2) {
        0 => CapDesc::Mem { pe: arb(r), offset: arb(r), size: arb(r), perm: arb(r) },
        _ => CapDesc::SGate {
            pe: arb(r),
            ep: arb(r),
            label: arb(r),
            credits: arb(r),
            max_payload: arb(r),
        },
    };
    KtkReply = |r| KtkReply {
        code: arb(r),
        a: arb(r),
        b: arb(r),
        caps: list(r, MAX_EXCHANGE_CAPS),
        args: arb(r),
    };
    Syscall = |r| match r.next_below(17) {
        0 => Syscall::Noop,
        1 => Syscall::CreateRGate { dst: arb(r), slots: arb(r), slot_size: arb(r) },
        2 => Syscall::CreateSGate { dst: arb(r), rgate: arb(r), label: arb(r), credits: arb(r) },
        3 => Syscall::AllocMem { dst: arb(r), size: arb(r), perm: arb(r) },
        4 => Syscall::DeriveMem {
            dst: arb(r),
            src: arb(r),
            offset: arb(r),
            size: arb(r),
            perm: arb(r),
        },
        5 => Syscall::CreateVpe { dst: arb(r), mem_dst: arb(r), pe: arb(r), name: arb(r) },
        6 => Syscall::VpeStart { vpe: arb(r) },
        7 => Syscall::VpeWait { vpe: arb(r) },
        8 => Syscall::Activate { vpe: arb(r), ep: arb(r), gate: arb(r) },
        9 => Syscall::CreateSrv { dst: arb(r), rgate: arb(r), name: arb(r) },
        10 => Syscall::OpenSess { dst: arb(r), name: arb(r), arg: arb(r) },
        11 => Syscall::ExchangeSess {
            sess: arb(r),
            obtain: arb(r),
            caps: list(r, MAX_EXCHANGE_CAPS),
            args: arb(r),
        },
        12 => Syscall::Exchange { vpe: arb(r), own: arb(r), other: arb(r), obtain: arb(r) },
        13 => Syscall::Revoke { sel: arb(r) },
        14 => Syscall::Exit { code: arb(r) },
        15 => Syscall::PageFault { dst: arb(r), virt: arb(r), access: arb(r) },
        _ => Syscall::Unmap { virt: arb(r) },
    };
    SyscallReply = |r| SyscallReply { error: arb(r), data: arb(r) };
    ServiceRequest = |r| match r.next_below(3) {
        0 => ServiceRequest::Open { arg: arb(r) },
        1 => ServiceRequest::Exchange {
            ident: arb(r),
            obtain: arb(r),
            cap_count: arb(r),
            args: arb(r),
        },
        _ => ServiceRequest::Close { ident: arb(r) },
    };
    ServiceReply = |r| ServiceReply {
        error: arb(r),
        ident: arb(r),
        caps: list(r, MAX_EXCHANGE_CAPS),
        args: arb(r),
    };
    KtkMsg = |r| match r.next_below(10) {
        0 => KtkMsg::Hello,
        1 => KtkMsg::PlaceVpe { req_id: arb(r), want: arb(r), name: arb(r) },
        2 => KtkMsg::StartVpe { req_id: arb(r), vpe: arb(r) },
        3 => KtkMsg::WaitVpe { req_id: arb(r), vpe: arb(r) },
        4 => KtkMsg::RevokeVpe { vpe: arb(r) },
        5 => KtkMsg::DelegateCap { req_id: arb(r), vpe: arb(r), sel: arb(r), desc: arb(r) },
        6 => KtkMsg::RevokeCap { vpe: arb(r), sel: arb(r) },
        7 => KtkMsg::OpenSess { req_id: arb(r), name: arb(r), arg: arb(r) },
        8 => KtkMsg::ExchangeSess {
            req_id: arb(r),
            serv: arb(r),
            ident: arb(r),
            obtain: arb(r),
            cap_count: arb(r),
            descs: list(r, MAX_EXCHANGE_CAPS),
            args: arb(r),
        },
        _ => KtkMsg::Reply { req_id: arb(r), reply: arb(r) },
    };
    MetaRequest = |r| match r.next_below(9) {
        0 => MetaRequest::Open { path: arb(r), flags: arb(r) },
        1 => MetaRequest::Close { fd: arb(r), size: arb(r) },
        2 => MetaRequest::Stat { path: arb(r) },
        3 => MetaRequest::Mkdir { path: arb(r) },
        4 => MetaRequest::Rmdir { path: arb(r) },
        5 => MetaRequest::Unlink { path: arb(r) },
        6 => MetaRequest::Link { old: arb(r), new: arb(r) },
        7 => MetaRequest::ReadDir { path: arb(r), start: arb(r) },
        _ => MetaRequest::Fsck,
    };
    LocateArgs = |r| LocateArgs {
        fd: arb(r),
        offset: arb(r),
        write: arb(r),
        want_blocks: arb(r),
    };
    LocateReply = |r| LocateReply { ext_file_off: arb(r), ext_bytes: arb(r) };
    KvOp = |r| match r.next_below(3) {
        0 => KvOp::Get { key: arb(r) },
        1 => KvOp::Put { key: arb(r), tag: arb(r) },
        _ => KvOp::Scan,
    };
    KvReply = |r| KvReply { status: arb(r), bytes: arb(r) };
}

/// Random values per codec, and random byte strings per codec.
const CASES: usize = 300;

/// Checks the decode properties of one codec, given its encoder and
/// decoder: random values round-trip, every strict prefix of an encoding
/// is `BadMessage`, and neither random bytes nor a valid encoding with one
/// byte overwritten panics the decoder or fails it with another code.
fn decode_properties<T: Arb + PartialEq + Debug, B: AsRef<[u8]>>(
    seed: u64,
    encode: impl Fn(&T) -> B,
    decode: impl Fn(&[u8]) -> Result<T>,
) {
    let mut r = Rng::new(seed);
    for _ in 0..CASES {
        let value = T::arb(&mut r);
        let bytes = encode(&value).as_ref().to_vec();
        assert_eq!(decode(&bytes).unwrap(), value, "round trip of {value:?}");
        for cut in 0..bytes.len() {
            let short = decode(&bytes[..cut]);
            assert_eq!(code(short), Code::BadMessage, "{value:?} cut at {cut}");
        }
        let mut mutated = bytes.clone();
        let at = r.next_below(mutated.len() as u64) as usize;
        mutated[at] = arb(&mut r);
        let mut junk = vec![0; r.next_below(48) as usize];
        r.fill_bytes(&mut junk);
        for input in [mutated, junk] {
            if let Err(e) = decode(&input) {
                assert_eq!(e.code(), Code::BadMessage, "decoding {}", hex(&input));
            }
        }
    }
}

fn wire_properties<T: Wire + Arb + PartialEq + Debug>(seed: u64) {
    decode_properties(seed, marshal::encode::<T>, marshal::decode::<T>);
}

#[test]
fn every_codec_round_trips_and_rejects_truncation() {
    wire_properties::<PeType>(1);
    wire_properties::<PeRequest>(2);
    wire_properties::<CapDesc>(3);
    wire_properties::<KtkReply>(4);
    wire_properties::<LocateArgs>(5);
    decode_properties(6, Syscall::to_bytes, Syscall::from_bytes);
    decode_properties(7, SyscallReply::to_bytes, SyscallReply::from_bytes);
    decode_properties(8, ServiceRequest::to_bytes, ServiceRequest::from_bytes);
    decode_properties(9, ServiceReply::to_bytes, ServiceReply::from_bytes);
    decode_properties(10, ktk_bytes, |b| {
        KtkMsg::from_bytes(b).map(|(_, _, msg)| msg)
    });
    decode_properties(11, MetaRequest::to_bytes, MetaRequest::from_bytes);
    decode_properties(12, LocateReply::to_bytes, LocateReply::from_bytes);
    decode_properties(13, KvOp::to_bytes, KvOp::from_bytes);
    decode_properties(14, KvReply::to_bytes, KvReply::from_bytes);
}

#[test]
fn every_unknown_tag_is_bad_message() {
    // One-byte tags: every value no variant uses, followed by enough bytes
    // for any variant's fields.
    let unknown_u8 = |decode: &dyn Fn(&[u8]) -> bool, used: &[u8]| {
        for tag in (0..=u8::MAX).filter(|t| !used.contains(t)) {
            let mut bytes = vec![0; 64];
            bytes[0] = tag;
            assert!(decode(&bytes), "tag {tag}");
        }
    };
    let bad = |r: Result<()>| r.is_err_and(|e| e.code() == Code::BadMessage);
    unknown_u8(&|b| bad(marshal::decode::<PeType>(b).map(drop)), &[0, 1, 2]);
    unknown_u8(
        &|b| bad(marshal::decode::<PeRequest>(b).map(drop)),
        &[0, 1, 2],
    );
    unknown_u8(&|b| bad(marshal::decode::<CapDesc>(b).map(drop)), &[0, 1]);
    unknown_u8(
        &|b| bad(MetaRequest::from_bytes(b).map(drop)),
        &[0, 1, 2, 3, 4, 5, 6, 7, 8],
    );
    unknown_u8(&|b| bad(KvOp::from_bytes(b).map(drop)), &[1, 2, 3]);
    // Four-byte tags: the first unused values and the largest.
    for tag in [17, 18, 0xffff, u32::MAX] {
        let mut bytes = vec![0; 64];
        bytes[..4].copy_from_slice(&tag.to_le_bytes());
        assert_eq!(code(Syscall::from_bytes(&bytes)), Code::BadMessage);
        assert_eq!(code(ServiceRequest::from_bytes(&bytes)), Code::BadMessage);
        let mut framed = vec![0; 8];
        framed.extend_from_slice(&bytes);
        assert_eq!(code(KtkMsg::from_bytes(&framed)), Code::BadMessage);
    }
}
