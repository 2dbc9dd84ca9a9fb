//! Property tests (vendored `proptest`) for the wire protocol's
//! malformed-frame handling.
//!
//! The daemon reads frames from untrusted byte streams; every reader
//! (`read_request`, `read_response`, the store peer codec, the `hello`
//! handshake) must turn arbitrary garbage — truncations, bit flips,
//! lying length headers, random bytes — into clean `io::Error`s:
//! never a panic, and never unbounded allocation. Valid frames, and
//! valid frames with trailing garbage, must keep parsing.

#![expect(clippy::unwrap_used, reason = "test code panics on harness failures by design")]

use std::io::{BufReader, Cursor};

use chipletqc_engine::protocol::{
    read_request, read_response, write_request, write_response, Progress, Request, Response,
    Submission,
};
use chipletqc_engine::scenario::Scale;
use chipletqc_store::envelope::Encoding;
use chipletqc_store::remote::{read_store_reply, write_store_reply, StoreReply, StoreRequest};
use chipletqc_store::EntryKey;
use proptest::prelude::*;

/// A corpus of valid frames to mutate, covering every verb in both
/// directions.
fn valid_frames() -> Vec<Vec<u8>> {
    let requests = [
        Request::Hello("a shared token".into()),
        Request::Submit(Submission::default()),
        Request::Submit(Submission {
            sweep_text: Some("kind = fig8\nseed = 7, 8\n".into()),
            only: Some(vec!["fig8".into()]),
            scale: Some(Scale::Quick),
            workers: Some(4),
            shards: Some(2),
            seed: Some(9),
            reset: true,
        }),
        Request::Store(StoreRequest::Get(EntryKey::new("ck|b400", "tally", "s/0-512"))),
        Request::Store(StoreRequest::Put {
            key: EntryKey::new("ck|b400", "kgd-bin", "10q"),
            encoding: Encoding::Binary,
            payload: vec![0, 1, 2, 254, 255],
        }),
        Request::Store(StoreRequest::List),
        Request::Shutdown,
        Request::Cancel,
        Request::Status,
        Request::WorkClaim(Submission {
            sweep_text: Some("kind = fig8\ngrid = 10q2x2, 10q2x3\n".into()),
            only: Some(vec!["fig8-10q2x3".into()]),
            workers: Some(2),
            ..Submission::default()
        }),
    ];
    let responses = [
        Response::Report {
            batch: 3,
            timing: "2 scenario(s) on 4 worker(s)\n".into(),
            report: "{\n  \"schema\": 2\n}".into(),
        },
        Response::ShuttingDown,
        Response::Error("unknown kind `x9`".into()),
        Response::Progress(Progress::Queued { position: 2 }),
        Response::Progress(Progress::Tasks { done: 3, total: 16 }),
        Response::Busy { inflight: 4, queued: 16 },
        Response::Cancelled,
        Response::Status { json: "{\n  \"inflight\": 1,\n  \"queued\": 0\n}".into() },
        Response::WorkResult { pieces: "chipletqc-pieces/1\ncount = 0\n".into() },
    ];
    let replies = [
        StoreReply::Found { encoding: Encoding::Json, payload: b"{}".to_vec() },
        StoreReply::Missing,
        StoreReply::Stored,
        StoreReply::Keys(vec![EntryKey::new("ck", "mono-pop", "20q")]),
        StoreReply::Error("no store attached".into()),
    ];
    let mut frames = Vec::new();
    for request in &requests {
        let mut bytes = Vec::new();
        write_request(&mut bytes, request).unwrap();
        frames.push(bytes);
    }
    for response in &responses {
        let mut bytes = Vec::new();
        write_response(&mut bytes, response).unwrap();
        frames.push(bytes);
    }
    for reply in &replies {
        let mut bytes = Vec::new();
        write_store_reply(&mut bytes, reply).unwrap();
        frames.push(bytes);
    }
    frames
}

/// Feeds `bytes` to every reader; the only acceptable outcomes are a
/// clean `Ok` or a clean `Err` (a panic fails the test by unwinding).
fn feed_all_readers(bytes: &[u8]) {
    let _ = read_request(&mut BufReader::new(Cursor::new(bytes)));
    let _ = read_response(&mut BufReader::new(Cursor::new(bytes)));
    let _ = read_store_reply(&mut BufReader::new(Cursor::new(bytes)));
}

#[test]
fn no_valid_frame_is_a_prefix_of_another() {
    // Pairwise prefix-freedom across the whole corpus — including the
    // new progress/busy/cancel/cancelled frames against the existing
    // set. A streamed response sequence (progress frames followed by a
    // terminal frame) relies on this: a reader that resynchronizes at
    // frame boundaries must never confuse one frame for the start of
    // another.
    let frames = valid_frames();
    for (i, a) in frames.iter().enumerate() {
        for (j, b) in frames.iter().enumerate() {
            if i != j && a != b {
                assert!(
                    !b.starts_with(a.as_slice()),
                    "frame {i} is a strict prefix of frame {j}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_a_reader(
        bytes in prop::collection::vec(0u8..=255u8, 0..=512),
    ) {
        feed_all_readers(&bytes);
    }

    #[test]
    fn truncated_valid_frames_never_panic_and_never_misparse(
        frame_pick in 0usize..24,
        cut_permille in 0usize..1000,
    ) {
        let frames = valid_frames();
        let frame = &frames[frame_pick % frames.len()];
        let cut = cut_permille * frame.len() / 1000;
        feed_all_readers(&frame[..cut]);
        // A truncated frame must never be accepted as the complete
        // one it was cut from (prefix-freedom of the framing).
        if cut < frame.len() {
            let as_request = read_request(&mut BufReader::new(Cursor::new(&frame[..cut])));
            let full_request = read_request(&mut BufReader::new(Cursor::new(&frame[..])));
            if let (Ok(truncated), Ok(full)) = (as_request, full_request) {
                prop_assert!(truncated != full, "cut at {} parsed as the full frame", cut);
            }
        }
    }

    #[test]
    fn flipped_bytes_never_panic_a_reader(
        frame_pick in 0usize..24,
        flip_permille in 0usize..1000,
        xor in 1u8..=255u8,
    ) {
        let frames = valid_frames();
        let mut frame = frames[frame_pick % frames.len()].clone();
        let at = flip_permille * frame.len() / 1000;
        let at = at.min(frame.len() - 1);
        frame[at] ^= xor;
        feed_all_readers(&frame);
    }

    #[test]
    fn lying_length_headers_are_bounded_errors(
        // Strictly more than the 5-byte "short" payload below, so the
        // claim is always a lie (claimed <= 5 would legitimately
        // parse a prefix of the payload).
        claimed in 6u64..=u64::MAX / 2,
        verb_pick in 0usize..4,
    ) {
        // A header may claim any payload length; the reader must
        // either read that many bytes (they are not there) or refuse
        // the length outright — allocating gigabytes is failure.
        let (verb, header) = [
            ("submit", "sweep-bytes"),
            ("hello", "token-bytes"),
            ("store-get", "key-bytes"),
            ("error", "message-bytes"),
        ][verb_pick];
        let frame = format!("chipletqc/1 {verb}\n{header} = {claimed}\n\nshort");
        let request = read_request(&mut BufReader::new(Cursor::new(frame.as_bytes())));
        prop_assert!(request.is_err(), "{verb} with a lying {header} = {claimed} parsed");
        feed_all_readers(frame.as_bytes());
    }

    #[test]
    fn valid_frames_survive_trailing_garbage(
        frame_pick in 0usize..9,
        garbage in prop::collection::vec(0u8..=255u8, 0..=64),
    ) {
        // Frames are self-delimiting: whatever follows one must not
        // affect its parse.
        let requests = [
            Request::Hello("tok".into()),
            Request::Submit(Submission::default()),
            Request::Submit(Submission {
                sweep_text: Some("kind = fig8\n".into()),
                ..Submission::default()
            }),
            Request::Store(StoreRequest::Get(EntryKey::new("ck", "tally", "s/0-512"))),
            Request::Store(StoreRequest::List),
            Request::Shutdown,
            Request::Cancel,
            Request::Status,
            Request::Store(StoreRequest::Put {
                key: EntryKey::new("ck", "raw-bin", "s/0-512"),
                encoding: Encoding::Binary,
                payload: b"p".to_vec(),
            }),
        ];
        let request = &requests[frame_pick % requests.len()];
        let mut bytes = Vec::new();
        write_request(&mut bytes, request).unwrap();
        bytes.extend_from_slice(&garbage);
        let parsed = read_request(&mut BufReader::new(Cursor::new(&bytes))).unwrap();
        prop_assert_eq!(&parsed, request);
    }
}
