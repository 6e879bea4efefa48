#include "common/file_io.hpp"

#include <fstream>

#include "common/error.hpp"

namespace dlcomp {

void write_file(const std::string& path, std::string_view text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.good()) throw Error("cannot open '" + path + "' for writing");
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  os.close();  // flush first: a full disk often shows only here
  if (!os.good()) throw Error("write to '" + path + "' failed");
}

void write_file(const std::string& path, std::span<const std::byte> data) {
  write_file(path, std::string_view(reinterpret_cast<const char*>(data.data()),
                                    data.size()));
}

}  // namespace dlcomp
