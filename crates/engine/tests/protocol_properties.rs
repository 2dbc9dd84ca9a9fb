//! Property tests (vendored `proptest`) for the wire protocol's
//! malformed-frame handling.
//!
//! The daemon reads frames from untrusted byte streams; every reader
//! (`read_request`, `read_response`, the store peer codec, the `hello`
//! handshake) must turn arbitrary garbage — truncations, bit flips,
//! lying length headers, random bytes — into clean `io::Error`s:
//! never a panic, and never unbounded allocation. The corpus samples
//! every frame variant, and each sample, alone or followed by trailing
//! garbage, must read back as the value that wrote it.

#![expect(clippy::unwrap_used, reason = "test code panics on harness failures by design")]

use std::fmt::Debug;
use std::io::{self, BufReader, Cursor};

use chipletqc_engine::protocol::{
    read_request, read_response, write_request, write_response, Progress, Request, Response,
    Submission,
};
use chipletqc_engine::scenario::Scale;
use chipletqc_store::envelope::Encoding;
use chipletqc_store::remote::{read_store_reply, write_store_reply, StoreReply, StoreRequest};
use chipletqc_store::EntryKey;
use proptest::prelude::*;

/// Every request shape, sampled at least once. The `match` has no `_`
/// arm, so a new `Request` or `StoreRequest` variant fails to compile
/// here until it gets an arm — and a sample above it.
fn requests() -> Vec<Request> {
    let samples = vec![
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
        Request::Store(StoreRequest::Get(EntryKey::new("ck|b400", "mono-pop", "40q"))),
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
    for sample in &samples {
        match sample {
            Request::Hello(_)
            | Request::Submit(_)
            | Request::Store(
                StoreRequest::Get(_) | StoreRequest::Put { .. } | StoreRequest::List,
            )
            | Request::WorkClaim(_)
            | Request::Cancel
            | Request::Status
            | Request::Shutdown => {}
        }
    }
    samples
}

/// Every response shape — the five `ok` shapes and both `progress`
/// shapes among them — sampled at least once, held by a `match` with
/// no `_` arm as in [`requests`].
fn responses() -> Vec<Response> {
    let samples = vec![
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
    for sample in &samples {
        match sample {
            Response::Report { .. }
            | Response::WorkResult { .. }
            | Response::ShuttingDown
            | Response::Progress(Progress::Queued { .. } | Progress::Tasks { .. })
            | Response::Busy { .. }
            | Response::Cancelled
            | Response::Status { .. }
            | Response::Error(_) => {}
        }
    }
    samples
}

/// Every store peer reply shape, sampled at least once, held by a
/// `match` with no `_` arm as in [`requests`].
fn store_replies() -> Vec<StoreReply> {
    let samples = vec![
        StoreReply::Found { encoding: Encoding::Json, payload: b"{}".to_vec() },
        StoreReply::Missing,
        StoreReply::Stored,
        StoreReply::Keys(vec![EntryKey::new("ck", "mono-pop", "20q")]),
        StoreReply::Error("no store attached".into()),
    ];
    for sample in &samples {
        match sample {
            StoreReply::Found { .. }
            | StoreReply::Missing
            | StoreReply::Stored
            | StoreReply::Keys(_)
            | StoreReply::Error(_) => {}
        }
    }
    samples
}

type Writer<T> = fn(&mut Vec<u8>, &T) -> io::Result<()>;
type Reader<T> = fn(&mut BufReader<Cursor<Vec<u8>>>) -> io::Result<T>;

fn encode<T>(write: Writer<T>, value: &T) -> Vec<u8> {
    let mut bytes = Vec::new();
    write(&mut bytes, value).unwrap();
    bytes
}

fn decode<T>(read: Reader<T>, bytes: &[u8]) -> io::Result<T> {
    read(&mut BufReader::new(Cursor::new(bytes.to_vec())))
}

/// The encoding of every sample, requests then responses then store
/// replies.
fn valid_frames() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> =
        requests().iter().map(|r| encode(write_request, r)).collect();
    frames.extend(responses().iter().map(|r| encode(write_response, r)));
    frames.extend(store_replies().iter().map(|r| encode(write_store_reply, r)));
    frames
}

/// Writes each sample, appends `trailing`, and reads one frame back:
/// it must be the sample itself. Same-verb shapes (the `ok` and
/// `progress` frames) are told apart only by their headers, so this is
/// where a writer that borrows another shape's head fails.
fn assert_each_reads_back<T: PartialEq + Debug>(
    samples: &[T],
    write: Writer<T>,
    read: Reader<T>,
    trailing: &[u8],
) {
    for sample in samples {
        let mut bytes = encode(write, sample);
        bytes.extend_from_slice(trailing);
        assert_eq!(&decode(read, &bytes).unwrap(), sample);
    }
}

/// Cuts each sample's frame at `permille` of its length: the cut frame
/// must never read back as the sample it was cut from (prefix-freedom
/// of the framing).
fn assert_cuts_never_misparse<T: PartialEq + Debug>(
    samples: &[T],
    write: Writer<T>,
    read: Reader<T>,
    permille: usize,
) {
    for sample in samples {
        let frame = encode(write, sample);
        let cut = permille * frame.len() / 1000;
        if let Ok(parsed) = decode(read, &frame[..cut]) {
            assert!(&parsed != sample, "cut at {cut} parsed as the full frame {sample:?}");
        }
    }
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

#[test]
fn every_frame_reads_back_as_the_value_that_wrote_it() {
    assert_each_reads_back(&requests(), write_request, read_request, &[]);
    assert_each_reads_back(&responses(), write_response, read_response, &[]);
    assert_each_reads_back(&store_replies(), write_store_reply, read_store_reply, &[]);
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
    fn truncated_valid_frames_never_panic_and_never_misparse(cut_permille in 0usize..1000) {
        for frame in valid_frames() {
            feed_all_readers(&frame[..cut_permille * frame.len() / 1000]);
        }
        assert_cuts_never_misparse(&requests(), write_request, read_request, cut_permille);
        assert_cuts_never_misparse(&responses(), write_response, read_response, cut_permille);
        assert_cuts_never_misparse(
            &store_replies(),
            write_store_reply,
            read_store_reply,
            cut_permille,
        );
    }

    #[test]
    fn flipped_bytes_never_panic_a_reader(
        flip_permille in 0usize..1000,
        xor in 1u8..=255u8,
    ) {
        for mut frame in valid_frames() {
            let at = flip_permille * frame.len() / 1000;
            frame[at] ^= xor;
            feed_all_readers(&frame);
        }
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
        garbage in prop::collection::vec(0u8..=255u8, 0..=64),
    ) {
        // Frames are self-delimiting: whatever follows one must not
        // affect its parse. Clients read progress frames and the
        // terminal frame back to back, so responses count too.
        assert_each_reads_back(&requests(), write_request, read_request, &garbage);
        assert_each_reads_back(&responses(), write_response, read_response, &garbage);
        assert_each_reads_back(&store_replies(), write_store_reply, read_store_reply, &garbage);
    }
}
