// Global operator new/delete replacement feeding the allocation
// counter of trace.h: every replaceable form, so no allocation escapes
// the count or pairs with another allocator's delete. Linked into the
// executables only.

#include <cstdlib>
#include <new>

#include "trace.h"

namespace {

void*
countedAlloc(std::size_t size)
{
    perfbench::noteAllocation(size);
    void* p = std::malloc(size == 0 ? 1 : size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void*
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    perfbench::noteAllocation(size);
    // aligned_alloc requires size to be a multiple of the alignment.
    std::size_t padded = (size + align - 1) / align * align;
    void* p = std::aligned_alloc(align, padded == 0 ? align : padded);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return operator new(size, tag);
}

void*
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t&) noexcept
{
    try {
        return countedAlignedAlloc(size, static_cast<std::size_t>(align));
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t& tag) noexcept
{
    return operator new(size, align, tag);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}
