//! Socket primitives: a transport selector plus listener/stream wrappers
//! that make TCP and Unix-domain sockets interchangeable for everything
//! above this module (servers, clients, the local overlay).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which socket family an overlay runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Loopback TCP (`127.0.0.1`, ephemeral ports).
    Tcp,
    /// Unix-domain stream sockets (temp-dir paths, unlinked on close).
    Unix,
}

impl Transport {
    /// Stable lower-case name (`tcp` / `unix`).
    pub fn name(&self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Unix => "unix",
        }
    }

    /// Parse a transport name back.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "tcp" => Ok(Transport::Tcp),
            "unix" => Ok(Transport::Unix),
            other => Err(format!(
                "unknown transport {other:?} (expected tcp or unix)"
            )),
        }
    }
}

/// The address of a live broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Tcp(addr) => write!(f, "tcp://{addr}"),
            Addr::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// Distinguishes concurrently bound sockets of one process (Unix socket
/// paths must be unique on disk).
static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A bound, listening server socket of either family. Unix listeners
/// unlink their path on drop.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener and the path it is bound to.
    Unix {
        /// The listening socket.
        listener: UnixListener,
        /// The path to unlink on drop.
        path: PathBuf,
    },
}

impl Listener {
    /// Bind a fresh listener: an ephemeral loopback port for TCP, a unique
    /// temp-dir path for Unix.
    pub fn bind(transport: Transport) -> io::Result<Self> {
        match transport {
            Transport::Tcp => Ok(Listener::Tcp(TcpListener::bind("127.0.0.1:0")?)),
            Transport::Unix => {
                let path = std::env::temp_dir().join(format!(
                    "tps-net-{}-{}.sock",
                    std::process::id(),
                    SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
                ));
                // A crashed earlier process may have left the name behind.
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)?;
                Ok(Listener::Unix { listener, path })
            }
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Tcp(listener) => Ok(Addr::Tcp(listener.local_addr()?)),
            Listener::Unix { path, .. } => Ok(Addr::Unix(path.clone())),
        }
    }

    /// Block until one connection arrives.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                // A frame is one write (`codec::write_frame`), but several
                // small frames leave back to back — an ack, then a delivery
                // — and the second would wait out the first's delayed ACK:
                // without TCP_NODELAY, Nagle turns request/reply round
                // trips into ~40 ms stalls.
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
            Listener::Unix { listener, .. } => {
                let (stream, _) = listener.accept()?;
                Ok(Stream::Unix(stream))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One connected stream of either family.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Connect to a broker address.
    pub fn connect(addr: &Addr) -> io::Result<Self> {
        match addr {
            Addr::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                // See `Listener::accept`: consecutive frames are separate
                // writes, and Nagle would serialise them on delayed ACKs.
                stream.set_nodelay(true)?;
                Ok(Stream::Tcp(stream))
            }
            Addr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// A second handle on the same connection (reader/writer thread split).
    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            Stream::Tcp(stream) => Ok(Stream::Tcp(stream.try_clone()?)),
            Stream::Unix(stream) => Ok(Stream::Unix(stream.try_clone()?)),
        }
    }

    /// Shut both directions down, unblocking any thread parked in a read.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.shutdown(Shutdown::Both),
            Stream::Unix(stream) => stream.shutdown(Shutdown::Both),
        }
    }

    /// Set (or clear) the read timeout.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.set_read_timeout(timeout),
            Stream::Unix(stream) => stream.set_read_timeout(timeout),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(stream) => stream.read(buf),
            Stream::Unix(stream) => stream.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(stream) => stream.write(buf),
            Stream::Unix(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(stream) => stream.flush(),
            Stream::Unix(stream) => stream.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_transports_bind_connect_and_echo() {
        for transport in [Transport::Tcp, Transport::Unix] {
            let listener = Listener::bind(transport).unwrap();
            let addr = listener.addr().unwrap();
            let server = std::thread::spawn(move || {
                let mut conn = listener.accept().unwrap();
                let mut buf = [0u8; 5];
                conn.read_exact(&mut buf).unwrap();
                conn.write_all(&buf).unwrap();
            });
            let mut client = Stream::connect(&addr).unwrap();
            client.write_all(b"hello").unwrap();
            let mut echo = [0u8; 5];
            client.read_exact(&mut echo).unwrap();
            assert_eq!(&echo, b"hello", "{}", transport.name());
            server.join().unwrap();
        }
    }

    #[test]
    fn unix_listener_unlinks_its_path_on_drop() {
        let listener = Listener::bind(Transport::Unix).unwrap();
        let Addr::Unix(path) = listener.addr().unwrap() else {
            panic!("unix listener must report a unix addr");
        };
        assert!(path.exists());
        drop(listener);
        assert!(!path.exists());
    }

    #[test]
    fn names_round_trip() {
        for transport in [Transport::Tcp, Transport::Unix] {
            assert_eq!(Transport::parse(transport.name()), Ok(transport));
        }
        assert!(Transport::parse("carrier-pigeon").is_err());
    }
}
