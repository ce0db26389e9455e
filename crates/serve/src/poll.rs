//! The one `unsafe` call in gef-serve: `poll(2)` over borrowed file
//! descriptors, with no crate between the server and libc.
//!
//! # SAFETY audit
//!
//! * **Symbol.** `poll` is declared here with the POSIX signature
//!   `int poll(struct pollfd *fds, nfds_t nfds, int timeout)`. The
//!   standard library already links the platform C library on every
//!   Unix target, so the symbol resolves without a build script.
//! * **Layout.** [`PollFd`] is `#[repr(C)]` with the fields of
//!   `struct pollfd` in POSIX order (`int fd; short events; short
//!   revents;`), and `nfds_t` is `unsigned long` on Linux and `unsigned
//!   int` on the BSDs and macOS. The event bits below have the same
//!   values on all of them.
//! * **Pointer.** [`poll`] passes `fds.as_mut_ptr()` and `fds.len()`
//!   from one live `&mut [PollFd]`, so the kernel reads and writes
//!   exactly that many initialised entries, and nothing else aliases
//!   them during the call.
//! * **Descriptors.** Every entry is built from a [`BorrowedFd`] whose
//!   lifetime the entry carries, so each descriptor stays open for the
//!   whole call. The kernel only reports readiness: it never closes,
//!   duplicates or reads a descriptor it polls, so no ownership moves.
//! * **Errors.** A negative return is read from `errno` through
//!   [`std::io::Error::last_os_error`]; `EINTR` is reported as zero
//!   ready descriptors, so callers simply poll again.

use std::marker::PhantomData;
use std::os::fd::{AsRawFd, BorrowedFd, RawFd};
use std::time::Duration;

/// Readable, or a pending accept on a listener.
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (reported whether asked for or not).
const POLLERR: i16 = 0x008;
/// Peer hung up (reported whether asked for or not).
const POLLHUP: i16 = 0x010;
/// Not an open descriptor (reported whether asked for or not).
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(
        fds: *mut PollFd<'_>,
        nfds: Nfds,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

/// One `struct pollfd`, borrowing its descriptor for `'fd`.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd<'fd> {
    fd: RawFd,
    events: i16,
    revents: i16,
    _fd: PhantomData<BorrowedFd<'fd>>,
}

impl<'fd> PollFd<'fd> {
    /// Watch `fd` for `events` (a mix of [`POLLIN`] and [`POLLOUT`]).
    pub(crate) fn new(fd: BorrowedFd<'fd>, events: i16) -> PollFd<'fd> {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
            _fd: PhantomData,
        }
    }

    /// Whether the last [`poll`] found the descriptor readable, hung up
    /// or in error: a read then returns data, end of stream or the
    /// error without blocking.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Block until at least one of `fds` is ready or `timeout` passes
/// (`None` waits without limit). Returns how many entries are ready;
/// zero on timeout or on a signal.
pub(crate) fn poll(fds: &mut [PollFd<'_>], timeout: Option<Duration>) -> std::io::Result<usize> {
    let ms = match timeout {
        None => -1,
        // Round up so a sub-millisecond wait does not spin at zero.
        Some(t) => t.as_micros().div_ceil(1_000).min(i32::MAX as u128) as std::os::raw::c_int,
    };
    // SAFETY: see the module audit. The pointer and length come from
    // one live exclusive slice of `#[repr(C)]` pollfd entries, each of
    // whose descriptors is borrowed for at least the call.
    let rc = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_readiness_and_times_out() {
        let (mut a, b) = UnixStream::pair().unwrap();
        // Nothing sent yet: b is writable, not readable; the wait ends
        // on the timeout.
        let mut fds = [PollFd::new(b.as_fd(), POLLIN)];
        let t = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(t.elapsed() >= Duration::from_millis(15));
        assert!(!fds[0].readable());
        let mut fds = [PollFd::new(b.as_fd(), POLLOUT)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert_eq!(fds[0].revents, POLLOUT);
        // One byte makes b readable; the peer's close is readable too.
        a.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(b.as_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert!(fds[0].readable());
        drop(a);
        let mut fds = [PollFd::new(b.as_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert!(fds[0].readable());
    }
}
