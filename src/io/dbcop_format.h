//===- io/dbcop_format.h - DBCop-style block history format -------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A DBCop-style block history format: an explicit session count followed
/// by per-transaction blocks (of the shape of DBCop's textual dumps):
///
/// \code
///   sessions <k>
///   txn <session> <committed 0|1> <numops>
///   R <key> <value>
///   W <key> <value>
/// \endcode
///
/// parseHistory("dbcop", ...) (io/sharded_ingest.h) reads it; the grammar
/// lives in io/stream_parser.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_IO_DBCOP_FORMAT_H
#define AWDIT_IO_DBCOP_FORMAT_H

#include "history/history.h"

#include <string>

namespace awdit {

/// Serializes \p H in the DBCop-style block format.
std::string writeDbcopHistory(const History &H);

} // namespace awdit

#endif // AWDIT_IO_DBCOP_FORMAT_H
