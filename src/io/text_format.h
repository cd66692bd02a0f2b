//===- io/text_format.h - Native history text format --------------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native AWDIT history text format: a line-oriented transcript of
/// sessions, transactions, and operations.
///
/// \code
///   # comment
///   b <session>        -- begin a transaction in <session>
///   r <key> <value>    -- read
///   w <key> <value>    -- write
///   c                  -- commit the open transaction
///   a                  -- abort the open transaction
/// \endcode
///
/// Transactions of a session appear in session order; the wr relation is
/// recovered from values (unique-value convention).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_IO_TEXT_FORMAT_H
#define AWDIT_IO_TEXT_FORMAT_H

#include "history/history.h"

#include <optional>
#include <string>
#include <string_view>

namespace awdit {

/// Parses the native text format: parseHistory("native", ...)
/// (io/sharded_ingest.h). Returns std::nullopt and sets \p Err on
/// malformed input.
std::optional<History> parseTextHistory(std::string_view Text,
                                        std::string *Err = nullptr);

/// Serializes \p H in the native text format (round-trips through
/// parseTextHistory).
std::string writeTextHistory(const History &H);

/// Reads and parses a history file; convenience for tools.
std::optional<History> loadTextHistoryFile(const std::string &Path,
                                           std::string *Err = nullptr);

/// Writes \p H to \p Path; returns false and sets \p Err on I/O failure.
bool saveTextHistoryFile(const History &H, const std::string &Path,
                         std::string *Err = nullptr);

} // namespace awdit

#endif // AWDIT_IO_TEXT_FORMAT_H
