//===- FileIO.h - Whole-file reads and atomic writes ------------*- C++ -*-===//
//
// Part of the CFED project (CGO'06 control-flow error detection repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two file operations the campaign checkpoints, live snapshots and
/// the reporting tools share: read a whole file, and replace a file
/// atomically so a concurrent reader (or a resume after a kill landing
/// mid-write) sees the previous contents or the new ones, never a torn
/// prefix.
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

/// Writes \p Text to \p Path through a sibling temp file renamed over
/// the destination (rename(2) is atomic within a filesystem). False,
/// with \p Error set and the temp file removed, on any failure.
inline bool writeFileAtomic(const std::string &Path, const std::string &Text,
                            std::string &Error) {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "w");
  if (!F) {
    Error = "cannot open '" + Tmp + "' for writing";
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok = std::fflush(F) == 0 && Ok;
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    Error = "short write to '" + Tmp + '\'';
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
