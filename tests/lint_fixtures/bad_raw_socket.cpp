// Fixture: socket syscalls outside the serve socket layer. A raw send can
// SIGPIPE the process (no MSG_NOSIGNAL), and a second listen/connect path
// drifts from the hardened one. One finding per call; the scoped
// lookalikes at the bottom must stay silent.
#include <sys/socket.h>

#include <functional>
#include <string>

int listen_raw(const sockaddr* addr, socklen_t len) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ::bind(fd, addr, len);
  ::listen(fd, 64);
  return fd;
}

void talk_raw(int fd, const sockaddr* addr, socklen_t len) {
  char buf[16];
  ::connect(fd, addr, len);
  ::send(fd, "ping\n", 5, 0);
  ::recv(fd, buf, sizeof(buf), 0);
}

namespace net {
int connect(const std::string& endpoint);
}  // namespace net

int lookalikes() {
  auto one = std::bind([](int x) { return x; }, 1);
  return net::connect("127.0.0.1:1") + one();
}
