//! A minimal blocking loopback client — the counterpart the
//! integration tests and the throughput bench drive, and a reference
//! for anyone speaking the protocol from elsewhere.

use crate::protocol::{read_frame, write_frame, Request, Response, Workload};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection — one session on the server side.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects; with `TCP_NODELAY` so tiny request frames do not sit
    /// in Nagle buffers behind a previous response's ack.
    ///
    /// # Errors
    ///
    /// Fails if the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Transport failures surface as `io::Error`; a response that does
    /// not decode is `InvalidData`.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        self.read_response()
    }

    /// Runs `workload` for `tenant` under an optional deadline
    /// (`deadline_ms == 0` means none).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn search(
        &mut self,
        tenant: u64,
        workload: Workload,
        deadline_ms: u32,
    ) -> io::Result<Response> {
        self.request(&Request::Search { tenant, deadline_ms, workload })
    }

    /// Invalidates every cache of `tenant`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn bump_epoch(&mut self, tenant: u64) -> io::Result<Response> {
        self.request(&Request::BumpEpoch { tenant })
    }

    /// Scrapes the server's metrics snapshot (a
    /// [`Response::Metrics`] on
    /// success).
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn metrics(&mut self) -> io::Result<Response> {
        self.request(&Request::Metrics)
    }

    /// Reads one response without having sent anything — how a `Busy`
    /// refusal (written unsolicited by the accept loop) is observed.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn read_response(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the session")
        })?;
        Response::decode(&payload).map_err(|msg| io::Error::new(io::ErrorKind::InvalidData, msg))
    }

    /// Sends an arbitrary payload as a well-formed frame and reads the
    /// response — the hostile-payload path of the integration suite.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<Response> {
        write_frame(&mut self.stream, payload)?;
        self.read_response()
    }

    /// Writes raw bytes straight onto the wire — no framing, no
    /// response read. For tests that need to break the framing itself
    /// (truncated frames, hostile lengths).
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }
}
