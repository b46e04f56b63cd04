//! Deterministic fuzzing of everything that parses client- or
//! server-supplied bytes: payload decoders and the frame reader must
//! never panic on arbitrary input, the reader never hands out more than
//! `MAX_FRAME` bytes, and it fails only as a protocol violation
//! (`InvalidData`) or a truncated stream (`UnexpectedEof`).

use proptest::collection::vec;
use proptest::prelude::*;
use selc_serve::protocol::read_frame;
use selc_serve::{Request, Response, MAX_FRAME};
use std::io;

/// A payload whose leading opcode/status byte is usually a real one, so
/// the cases reach the field decoders instead of stopping at the tag.
fn tagged(tag: u8, rest: Vec<u8>) -> Vec<u8> {
    let mut payload = vec![tag];
    payload.extend(rest);
    payload
}

/// Reads one frame and checks the reader's contract on any outcome.
fn check_frame(bytes: &[u8]) -> Result<(), TestCaseError> {
    match read_frame(&mut &bytes[..]) {
        Ok(Some(payload)) => prop_assert!(payload.len() <= MAX_FRAME, "{} bytes", payload.len()),
        Ok(None) => prop_assert!(bytes.is_empty(), "only an empty stream is a clean hang-up"),
        Err(e) => prop_assert!(
            matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
            "unexpected error kind {:?}",
            e.kind()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn request_decode_never_panics(tag in 0u8..6, rest in vec(any::<u8>(), 0..48)) {
        let _ = Request::decode(&tagged(tag, rest.clone()));
        let _ = Request::decode(&rest);
    }

    #[test]
    fn response_decode_never_panics(tag in 0u8..9, rest in vec(any::<u8>(), 0..160)) {
        let _ = Response::decode(&tagged(tag, rest.clone()));
        let _ = Response::decode(&rest);
    }

    #[test]
    fn unframed_bytes_never_break_the_frame_reader(bytes in vec(any::<u8>(), 0..16)) {
        check_frame(&bytes)?;
    }

    #[test]
    fn framed_bytes_never_break_the_frame_reader(
        slack in 0u32..8,
        shrink in any::<bool>(),
        huge in 0u8..8,
        body in vec(any::<u8>(), 0..64),
    ) {
        // Announce the body's length give or take a few bytes, or (one
        // case in eight) a length past the cap.
        let len = u32::try_from(body.len()).unwrap();
        let announced = if huge == 0 {
            u32::try_from(MAX_FRAME).unwrap() + 1 + slack
        } else if shrink {
            len.saturating_sub(slack)
        } else {
            len + slack
        };
        let mut bytes = announced.to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        check_frame(&bytes)?;
        if announced <= len {
            let payload = read_frame(&mut &bytes[..]).unwrap().unwrap();
            prop_assert_eq!(&payload[..], &body[..announced as usize]);
        }
    }
}
