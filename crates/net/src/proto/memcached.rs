//! Memcached-over-UDP wire protocol.
//!
//! The paper's memcached workload sends GET and SET requests over UDP with
//! keys/values whose lengths follow a Zipfian distribution, and the load
//! generator "tracks a map of outstanding requests using the request ID
//! field in the Memcached request packet" (§VI.A). This module implements:
//!
//! * the standard 8-byte memcached UDP *frame header* (request id,
//!   sequence number, datagram count, reserved), and
//! * a compact binary request/response encoding (opcode, key, value).
//!
//! Requests must fit one UDP datagram (the paper replays single-datagram
//! UDP traces; multi-datagram responses are out of scope and rejected).
//!
//! [`Request`] and [`Response`] borrow their key/value bytes, and the
//! `*_into` encoders write straight into a caller-provided buffer (the
//! pooled packet's payload region), so a request/response round trip
//! allocates nothing on the hot path.

/// Byte length of every [`nth_key_into`] name.
pub const NTH_KEY_LEN: usize = 16;

/// Writes the canonical name of the `i`-th key in the benchmark key space,
/// `key:` and `i` in 12 zero-padded digits, into a stack buffer. The
/// server warm-up and the load-generator client share it so GETs hit.
///
/// # Panics
///
/// Panics if `i` needs more than 12 digits (outside every benchmark
/// key space).
pub fn nth_key_into(i: u64, buf: &mut [u8; NTH_KEY_LEN]) {
    assert!(i < 1_000_000_000_000, "key index {i} exceeds 12 digits");
    buf[..4].copy_from_slice(b"key:");
    let mut v = i;
    for slot in buf[4..].iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// The memcached UDP frame header prepended to every datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpFrameHeader {
    /// Request id used to correlate responses with requests.
    pub request_id: u16,
    /// Sequence number of this datagram within the message.
    pub seq: u16,
    /// Total datagrams in the message.
    pub total: u16,
}

/// Length of the UDP frame header.
pub const UDP_FRAME_HEADER_LEN: usize = 8;

impl UdpFrameHeader {
    /// A single-datagram message header.
    pub fn single(request_id: u16) -> Self {
        Self {
            request_id,
            seq: 0,
            total: 1,
        }
    }

    /// Parses from the start of `data`.
    pub fn parse(data: &[u8]) -> Option<Self> {
        if data.len() < UDP_FRAME_HEADER_LEN {
            return None;
        }
        Some(Self {
            request_id: u16::from_be_bytes([data[0], data[1]]),
            seq: u16::from_be_bytes([data[2], data[3]]),
            total: u16::from_be_bytes([data[4], data[5]]),
        })
    }

    /// Writes to the start of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`UDP_FRAME_HEADER_LEN`].
    pub fn write(&self, buf: &mut [u8]) {
        assert!(buf.len() >= UDP_FRAME_HEADER_LEN, "buffer too short");
        buf[0..2].copy_from_slice(&self.request_id.to_be_bytes());
        buf[2..4].copy_from_slice(&self.seq.to_be_bytes());
        buf[4..6].copy_from_slice(&self.total.to_be_bytes());
        buf[6..8].fill(0);
    }
}

/// A memcached request, borrowing its key/value bytes from the decoded
/// datagram (or the caller's staging buffer on the encode side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Fetch the value stored under `key`.
    Get {
        /// The key to look up.
        key: &'a [u8],
    },
    /// Store `value` under `key`.
    Set {
        /// The key to store under.
        key: &'a [u8],
        /// The value to store.
        value: &'a [u8],
    },
}

/// A memcached response, borrowing the value bytes (for a GET hit,
/// straight from the server's store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response<'a> {
    /// GET hit with the stored value.
    Hit {
        /// The stored value.
        value: &'a [u8],
    },
    /// GET miss.
    Miss,
    /// SET acknowledged.
    Stored,
}

const OP_GET: u8 = 0x00;
const OP_SET: u8 = 0x01;
const OP_HIT: u8 = 0x80;
const OP_MISS: u8 = 0x81;
const OP_STORED: u8 = 0x82;

/// Error decoding a memcached message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the declared key/value lengths.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated memcached message"),
            DecodeError::BadOpcode(op) => write!(f, "unknown memcached opcode 0x{op:02x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl<'a> Request<'a> {
    /// The request's key.
    pub fn key(&self) -> &'a [u8] {
        match self {
            Request::Get { key } => key,
            Request::Set { key, .. } => key,
        }
    }

    /// Encoded length: opcode + key len (u16) + value len (u32) + data.
    pub fn encoded_len(&self) -> usize {
        7 + match self {
            Request::Get { key } => key.len(),
            Request::Set { key, value } => key.len() + value.len(),
        }
    }

    /// Encodes into the start of `buf`, returning the encoded length.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`Request::encoded_len`].
    pub fn encode_into(&self, buf: &mut [u8]) -> usize {
        let len = self.encoded_len();
        assert!(buf.len() >= len, "buffer too short for request");
        let (key, value): (&[u8], &[u8]) = match self {
            Request::Get { key } => {
                buf[0] = OP_GET;
                (key, &[])
            }
            Request::Set { key, value } => {
                buf[0] = OP_SET;
                (key, value)
            }
        };
        buf[1..3].copy_from_slice(&(key.len() as u16).to_be_bytes());
        buf[3..7].copy_from_slice(&(value.len() as u32).to_be_bytes());
        buf[7..7 + key.len()].copy_from_slice(key);
        buf[7 + key.len()..len].copy_from_slice(value);
        len
    }

    /// Decodes from bytes, borrowing the key/value from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for truncated input or unknown opcodes.
    pub fn decode(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < 7 {
            return Err(DecodeError::Truncated);
        }
        let op = data[0];
        let key_len = u16::from_be_bytes([data[1], data[2]]) as usize;
        let value_len = u32::from_be_bytes([data[3], data[4], data[5], data[6]]) as usize;
        let body = &data[7..];
        if body.len() < key_len + value_len {
            return Err(DecodeError::Truncated);
        }
        let key = &body[..key_len];
        match op {
            OP_GET => Ok(Request::Get { key }),
            OP_SET => Ok(Request::Set {
                key,
                value: &body[key_len..key_len + value_len],
            }),
            other => Err(DecodeError::BadOpcode(other)),
        }
    }
}

impl<'a> Response<'a> {
    /// Encoded length.
    pub fn encoded_len(&self) -> usize {
        5 + match self {
            Response::Hit { value } => value.len(),
            _ => 0,
        }
    }

    /// Encodes into the start of `buf`, returning the encoded length.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`Response::encoded_len`].
    pub fn encode_into(&self, buf: &mut [u8]) -> usize {
        let len = self.encoded_len();
        assert!(buf.len() >= len, "buffer too short for response");
        match self {
            Response::Hit { value } => {
                buf[0] = OP_HIT;
                buf[1..5].copy_from_slice(&(value.len() as u32).to_be_bytes());
                buf[5..len].copy_from_slice(value);
            }
            Response::Miss => {
                buf[0] = OP_MISS;
                buf[1..5].fill(0);
            }
            Response::Stored => {
                buf[0] = OP_STORED;
                buf[1..5].fill(0);
            }
        }
        len
    }

    /// Decodes from bytes, borrowing a hit's value from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for truncated input or unknown opcodes.
    pub fn decode(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < 5 {
            return Err(DecodeError::Truncated);
        }
        let value_len = u32::from_be_bytes([data[1], data[2], data[3], data[4]]) as usize;
        match data[0] {
            OP_HIT => {
                let body = &data[5..];
                if body.len() < value_len {
                    return Err(DecodeError::Truncated);
                }
                Ok(Response::Hit {
                    value: &body[..value_len],
                })
            }
            OP_MISS => Ok(Response::Miss),
            OP_STORED => Ok(Response::Stored),
            other => Err(DecodeError::BadOpcode(other)),
        }
    }
}

/// Wire length of a full request datagram (frame header + request).
pub fn request_datagram_len(request: &Request<'_>) -> usize {
    UDP_FRAME_HEADER_LEN + request.encoded_len()
}

/// Wire length of a full response datagram (frame header + response).
pub fn response_datagram_len(response: &Response<'_>) -> usize {
    UDP_FRAME_HEADER_LEN + response.encoded_len()
}

/// Encodes a full request datagram into `buf`, returning its length.
///
/// # Panics
///
/// Panics if `buf` is shorter than [`request_datagram_len`].
pub fn encode_request_datagram_into(
    buf: &mut [u8],
    request_id: u16,
    request: &Request<'_>,
) -> usize {
    UdpFrameHeader::single(request_id).write(buf);
    UDP_FRAME_HEADER_LEN + request.encode_into(&mut buf[UDP_FRAME_HEADER_LEN..])
}

/// Encodes a full response datagram into `buf`, returning its length.
///
/// # Panics
///
/// Panics if `buf` is shorter than [`response_datagram_len`].
pub fn encode_response_datagram_into(
    buf: &mut [u8],
    request_id: u16,
    response: &Response<'_>,
) -> usize {
    UdpFrameHeader::single(request_id).write(buf);
    UDP_FRAME_HEADER_LEN + response.encode_into(&mut buf[UDP_FRAME_HEADER_LEN..])
}

/// Decodes a datagram payload into its frame header and request.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] if the frame header is incomplete.
pub fn decode_request_datagram(data: &[u8]) -> Result<(UdpFrameHeader, Request<'_>), DecodeError> {
    let header = UdpFrameHeader::parse(data).ok_or(DecodeError::Truncated)?;
    let request = Request::decode(&data[UDP_FRAME_HEADER_LEN..])?;
    Ok((header, request))
}

/// Decodes a datagram payload into its frame header and response.
///
/// # Errors
///
/// Returns [`DecodeError::Truncated`] if the frame header is incomplete.
pub fn decode_response_datagram(
    data: &[u8],
) -> Result<(UdpFrameHeader, Response<'_>), DecodeError> {
    let header = UdpFrameHeader::parse(data).ok_or(DecodeError::Truncated)?;
    let response = Response::decode(&data[UDP_FRAME_HEADER_LEN..])?;
    Ok((header, response))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_header_round_trip() {
        let h = UdpFrameHeader::single(0xBEEF);
        let mut buf = [0u8; 8];
        h.write(&mut buf);
        assert_eq!(UdpFrameHeader::parse(&buf), Some(h));
        assert_eq!(h.total, 1);
    }

    #[test]
    fn nth_key_into_writes_the_canonical_name() {
        for i in [0u64, 1, 42, 4_999, 999_999_999_999] {
            let mut buf = [0u8; NTH_KEY_LEN];
            nth_key_into(i, &mut buf);
            assert_eq!(&buf[..], format!("key:{i:012}").as_bytes(), "i={i}");
        }
    }

    #[test]
    fn get_round_trip() {
        let req = Request::Get { key: b"user:1234" };
        let mut buf = [0u8; 64];
        let len = req.encode_into(&mut buf);
        assert_eq!(len, req.encoded_len());
        assert_eq!(Request::decode(&buf[..len]).unwrap(), req);
    }

    #[test]
    fn set_round_trip() {
        let value = vec![7u8; 100];
        let req = Request::Set {
            key: b"k",
            value: &value,
        };
        let mut buf = [0u8; 128];
        let len = req.encode_into(&mut buf);
        assert_eq!(Request::decode(&buf[..len]).unwrap(), req);
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::Hit { value: &[1, 2, 3] },
            Response::Miss,
            Response::Stored,
        ] {
            let mut buf = [0u8; 16];
            let len = resp.encode_into(&mut buf);
            assert_eq!(Response::decode(&buf[..len]).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_inputs_error() {
        assert_eq!(Request::decode(&[]), Err(DecodeError::Truncated));
        let req = Request::Set {
            key: b"key",
            value: b"value",
        };
        let mut buf = [0u8; 64];
        let len = req.encode_into(&mut buf);
        assert_eq!(
            Request::decode(&buf[..len - 1]),
            Err(DecodeError::Truncated)
        );
        assert_eq!(Response::decode(&[0x80, 0, 0]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_opcode_errors() {
        let mut buf = [0u8; 7];
        Request::Get { key: &[] }.encode_into(&mut buf);
        buf[0] = 0x77;
        assert_eq!(Request::decode(&buf), Err(DecodeError::BadOpcode(0x77)));
    }

    #[test]
    fn datagram_round_trip() {
        let req = Request::Get { key: b"hotkey" };
        let mut dgram = vec![0u8; request_datagram_len(&req)];
        assert_eq!(
            encode_request_datagram_into(&mut dgram, 42, &req),
            dgram.len()
        );
        let (h, decoded) = decode_request_datagram(&dgram).unwrap();
        assert_eq!(h.request_id, 42);
        assert_eq!(decoded, req);

        let value = vec![9u8; 50];
        let resp = Response::Hit { value: &value };
        let mut dgram = vec![0u8; response_datagram_len(&resp)];
        assert_eq!(
            encode_response_datagram_into(&mut dgram, 42, &resp),
            dgram.len()
        );
        let (h, decoded) = decode_response_datagram(&dgram).unwrap();
        assert_eq!(h.request_id, 42);
        assert_eq!(decoded, resp);
    }
}
