#include "src/kernel/core_segment.h"

namespace mks {

CoreSegmentManager::CoreSegmentManager(KernelContext* ctx)
    : ctx_(ctx),
      self_(ctx->scopes.Register(module_names::kCoreSegment)),
      id_allocated_pages_(ctx->metrics.Intern("core_seg.allocated_pages")) {}

Result<CoreSegId> CoreSegmentManager::Allocate(std::string name, uint32_t pages) {
  ManagerScope scope(&ctx_->scopes, self_);
  if (sealed_) {
    return Status(Code::kFailedPrecondition, "core segments are fixed after initialization");
  }
  // Keep at least half of primary memory for the paging pool.
  const uint32_t budget = ctx_->memory.frame_count() / 2;
  if (next_frame_ + pages > budget) {
    return Status(Code::kResourceExhausted, "core segment budget exhausted: " + name);
  }
  CoreSegId id(static_cast<uint16_t>(segments_.size()));
  segments_.push_back(CoreSeg{std::move(name), next_frame_, pages});
  for (uint32_t i = 0; i < pages; ++i) {
    ctx_->memory.ZeroFrame(FrameIndex(next_frame_ + i));
  }
  next_frame_ += pages;
  ctx_->metrics.Inc(id_allocated_pages_, pages);
  return id;
}

Result<Word> CoreSegmentManager::ReadWord(CoreSegId seg, uint32_t offset) {
  ManagerScope scope(&ctx_->scopes, self_);
  if (seg.value >= segments_.size()) {
    return Status(Code::kInvalidArgument, "bad core segment id");
  }
  const CoreSeg& cs = segments_[seg.value];
  if (offset >= cs.pages * kPageWords) {
    return Status(Code::kOutOfBounds, "core segment " + cs.name);
  }
  return ctx_->memory.ReadWord(static_cast<uint64_t>(cs.first_frame) * kPageWords + offset);
}

Status CoreSegmentManager::WriteWord(CoreSegId seg, uint32_t offset, Word value) {
  ManagerScope scope(&ctx_->scopes, self_);
  if (seg.value >= segments_.size()) {
    return Status(Code::kInvalidArgument, "bad core segment id");
  }
  const CoreSeg& cs = segments_[seg.value];
  if (offset >= cs.pages * kPageWords) {
    return Status(Code::kOutOfBounds, "core segment " + cs.name);
  }
  ctx_->memory.WriteWord(static_cast<uint64_t>(cs.first_frame) * kPageWords + offset, value);
  return Status::Ok();
}

std::span<Word> CoreSegmentManager::RawSpan(CoreSegId seg) {
  const CoreSeg& cs = segments_[seg.value];
  std::span<Word> first = ctx_->memory.FrameSpan(FrameIndex(cs.first_frame));
  // Core segment frames are contiguous by construction.
  return std::span<Word>(first.data(), static_cast<size_t>(cs.pages) * kPageWords);
}

uint32_t CoreSegmentManager::SizeWords(CoreSegId seg) const {
  return segments_[seg.value].pages * kPageWords;
}

const std::string& CoreSegmentManager::Name(CoreSegId seg) const {
  return segments_[seg.value].name;
}

}  // namespace mks
