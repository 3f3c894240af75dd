//===- FileIO.h - Whole-file reads and atomic writes ------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The file operations the campaign checkpoints, live snapshots, result
/// files and the reporting tools share: read a whole file, write one with
/// every step checked, and replace a file atomically so a concurrent
/// reader (or a resume after a kill landing mid-write) sees the previous
/// contents or the new ones, never a torn prefix.
///
//===----------------------------------------------------------------------===//

#ifndef CFED_SUPPORT_FILEIO_H
#define CFED_SUPPORT_FILEIO_H

#include <cstdio>
#include <string>

namespace cfed {

/// Reads \p Path whole into \p Out; false when it cannot be opened.
inline bool readWholeFile(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Buf[4096];
  size_t N;
  Out.clear();
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return true;
}

/// Writes \p Text to \p Path in place (so device paths work). False,
/// with \p Error set, when the open, the write, the flush or the close
/// fails: a full disk may only report at the flush or the close.
inline bool writeFile(const std::string &Path, const std::string &Text,
                      std::string &Error) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok = std::fflush(F) == 0 && Ok;
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok)
    Error = "short write to '" + Path + '\'';
  return Ok;
}

/// Writes \p Text to \p Path through a sibling temp file renamed over
/// the destination (rename(2) is atomic within a filesystem). False,
/// with \p Error set and the temp file removed, on any failure. Never
/// point it at a device: the rename would replace the device node.
inline bool writeFileAtomic(const std::string &Path, const std::string &Text,
                            std::string &Error) {
  std::string Tmp = Path + ".tmp";
  if (!writeFile(Tmp, Text, Error)) {
    std::remove(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = "cannot rename '" + Tmp + "' to '" + Path + '\'';
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

} // namespace cfed

#endif // CFED_SUPPORT_FILEIO_H
